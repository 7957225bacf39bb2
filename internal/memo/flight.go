package memo

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flights coalesces concurrent executions by key. The first caller on
// a key starts a flight: its function runs in its own goroutine under
// the flight's own context, not any one caller's. Every later caller
// on the key joins the flight and receives the same outcome.
//
// Lifecycle invariants:
//
//   - A caller whose own context ends stops waiting at once, without
//     stopping a flight other callers still wait on. The last caller
//     to leave cancels the flight's context, so work nobody wants
//     unwinds cooperatively, and retires the flight from the table, so
//     later callers start afresh instead of inheriting a canceled
//     outcome. Both happen before that caller's Do returns.
//   - Every caller resolves exactly once: with the flight's outcome,
//     or with ok false when its own context ends first or start
//     declines.
//   - A flight leaves the table only after its function has returned.
//     Whatever the function published before returning is therefore
//     visible to start, which runs under the table lock: a caller that
//     probes the published state there can never miss both the flight
//     and what it published.
type Flights[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]

	started, joined, running atomic.Int64
}

// flight is one execution in progress.
type flight[V any] struct {
	done    chan struct{} // closed after out is set
	out     V
	waiters int // guarded by the table's mu; the starter counts as one
	cancel  context.CancelFunc
}

// NewFlights returns an empty table.
func NewFlights[K comparable, V any]() *Flights[K, V] {
	return &Flights[K, V]{m: map[K]*flight[V]{}}
}

// Do resolves one caller on key. With a flight running, the caller
// joins it (joined is true). Otherwise start, called under the table
// lock, decides whether to begin one; a nil start always does. If it
// does, fn runs in a new goroutine under the flight's context and its
// result goes to every caller still waiting. ok is false when start
// declined or ctx ended before the flight did.
func (t *Flights[K, V]) Do(ctx context.Context, key K, start func() bool, fn func(context.Context) V) (v V, joined, ok bool) {
	t.mu.Lock()
	f := t.m[key]
	if f != nil {
		f.waiters++
		joined = true
		t.joined.Add(1)
	} else {
		if start != nil && !start() {
			t.mu.Unlock()
			return v, false, false
		}
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
		t.m[key] = f
		t.started.Add(1)
		t.running.Add(1)
		go t.run(fctx, key, f, fn)
	}
	t.mu.Unlock()

	select {
	case <-f.done:
		return f.out, joined, true
	case <-ctx.Done():
	}
	t.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && t.m[key] == f {
		delete(t.m, key)
	}
	t.mu.Unlock()
	if last {
		f.cancel()
	}
	return v, joined, false
}

// run is a flight's goroutine: execute, retire the flight from the
// table, then wake its callers.
func (t *Flights[K, V]) run(ctx context.Context, key K, f *flight[V], fn func(context.Context) V) {
	f.out = fn(ctx)
	t.running.Add(-1)
	t.mu.Lock()
	if t.m[key] == f {
		delete(t.m, key)
	}
	t.mu.Unlock()
	close(f.done)
	f.cancel()
}

// Len returns the number of flights callers wait on now.
func (t *Flights[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// FlightStats counts a table's flights.
type FlightStats struct {
	// Flights counts flights started. Coalesced counts callers that
	// joined a flight another caller started. Inflight is the number
	// of flight functions running now, abandoned ones that have not yet
	// unwound included.
	Flights   int64 `json:"flights"`
	Coalesced int64 `json:"coalesced"`
	Inflight  int64 `json:"inflight"`
}

// Stats snapshots the table's counters.
func (t *Flights[K, V]) Stats() FlightStats {
	return FlightStats{Flights: t.started.Load(), Coalesced: t.joined.Load(), Inflight: t.running.Load()}
}
