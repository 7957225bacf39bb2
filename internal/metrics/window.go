// Package metrics holds the repository's one latency-quantile
// estimator: a fixed-capacity window of recent samples, and the single
// quantile rule every report in the repository applies.
package metrics

import (
	"slices"
	"sync"
)

// Quantile returns the q-quantile (0..1) of an ascending slice: the
// element at index min(n-1, floor(q·n)). An empty slice yields the
// zero value.
func Quantile[T any](sorted []T, q float64) T {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero
	}
	return sorted[min(max(int(q*float64(n)), 0), n-1)]
}

// Window keeps the most recent samples in a fixed-capacity ring and
// answers quantile queries over them. It is safe for concurrent use.
type Window struct {
	mu     sync.Mutex
	ring   []int64
	next   int   // write cursor
	n      int   // retained samples, at most len(ring)
	count  int64 // lifetime samples
	sorted []int64
	stale  bool // sorted lags ring
}

// NewWindow returns an empty window retaining the last capacity
// samples.
func NewWindow(capacity int) *Window {
	return &Window{ring: make([]int64, capacity), sorted: make([]int64, 0, capacity)}
}

// Record adds one sample, evicting the oldest once the window is full.
func (w *Window) Record(v int64) {
	w.mu.Lock()
	w.ring[w.next] = v
	w.next = (w.next + 1) % len(w.ring)
	w.n = min(w.n+1, len(w.ring))
	w.count++
	w.stale = true
	w.mu.Unlock()
}

// Quantile returns the q-quantile of the retained samples and how many
// samples back it; an empty window returns (0, 0).
func (w *Window) Quantile(q float64) (value int64, retained int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stale {
		w.sorted = append(w.sorted[:0], w.ring[:w.n]...)
		slices.Sort(w.sorted)
		w.stale = false
	}
	return Quantile(w.sorted, q), w.n
}

// Count returns how many samples were ever recorded.
func (w *Window) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}
