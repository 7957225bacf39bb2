package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Single-flight: identical in-flight cacheable jobs — same content
// key — coalesce onto one execution. The first submission becomes the
// flight's runner; every later identical submission joins as a waiter
// and receives a copy of the runner's outcome. The program tier runs
// a second flight table under the same lifecycle, keyed by
// ProgramKey, so jobs that differ only in simulation inputs share one
// compile (see program.go). Combined with the
// shared artifact store this is what makes N concurrent identical
// requests across a cluster cost exactly one compile: the front tier
// coalesces per key before routing, each shard coalesces per key
// before compiling, and the winning shard's Put makes every future
// request a cache hit.
//
// Lifecycle invariants:
//
//   - The runner executes in its own goroutine under the flight's own
//     context, not any one waiter's: a waiter that disconnects (or
//     times out) stops waiting without killing the compile the other
//     waiters still want. Only when the last waiter leaves is the
//     flight's context canceled.
//   - Every waiter — runner's submission included — resolves exactly
//     once: with the flight outcome, or with ErrCanceled/ErrTimeout
//     when its own context ends first. A submission whose context has
//     already ended when it finds no flight resolves the same way
//     without starting one.
//   - The runner publishes to the cache before the flight closes, and
//     the flight is removed from the table before waiters are woken,
//     so a submission that misses the cache and finds no flight can
//     never miss a result it raced with: the post-join double check
//     (cache.peek, or the program tier's get, under the flight-table
//     lock) closes that window.

// flight is one in-flight coalesced execution producing a T.
type flight[T any] struct {
	done chan struct{} // closed after out is set
	out  T

	waiters int // guarded by the table's mu; runner counts as one
	cancel  context.CancelFunc
}

// flightTable holds the in-flight executions of one kind, by key. The
// result tier runs one table keyed by Key, the program tier one keyed
// by ProgramKey; both follow the lifecycle above.
type flightTable[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

func newFlightTable[T any]() *flightTable[T] {
	return &flightTable[T]{m: map[string]*flight[T]{}}
}

// join adds the caller as a waiter on key's running flight (joined).
// With none running it calls start under the table lock — the window
// in which a runner that just finished has already published, so
// start re-probes the tier it publishes to — and, if start agrees,
// registers a new flight with the caller as its one waiter and returns
// it with the context its runner must run under. A nil flight means
// start declined.
func (t *flightTable[T]) join(key string, start func() bool) (f *flight[T], fctx context.Context, joined bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.m[key]; f != nil {
		f.waiters++
		return f, nil, true
	}
	if !start() {
		return nil, nil, false
	}
	fctx, cancel := context.WithCancel(context.Background())
	f = &flight[T]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	t.m[key] = f
	return f, fctx, false
}

// finish resolves the flight: the runner has published, the flight
// leaves the table, then its waiters wake.
func (t *flightTable[T]) finish(key string, f *flight[T], out T) {
	f.out = out
	t.mu.Lock()
	if t.m[key] == f {
		delete(t.m, key)
	}
	t.mu.Unlock()
	close(f.done)
	f.cancel()
}

// wait blocks one waiter on its flight and returns the outcome, or
// false when the waiter's own context ends first. A waiter that leaves
// early drops out; the last one out cancels the flight's context, so a
// compile nobody wants anymore unwinds cooperatively, and retires it
// from the table, so late arrivals start fresh instead of inheriting a
// canceled outcome.
func (t *flightTable[T]) wait(ctx context.Context, key string, f *flight[T]) (T, bool) {
	select {
	case <-f.done:
		return f.out, true
	case <-ctx.Done():
	}
	t.mu.Lock()
	f.waiters--
	last := f.waiters <= 0
	if last && t.m[key] == f {
		delete(t.m, key)
	}
	t.mu.Unlock()
	if last {
		f.cancel()
	}
	var zero T
	return zero, false
}

// flightCounters is the single-flight observability block.
type flightCounters struct {
	flights   atomic.Int64 // flights started (== actual compiles attempted)
	coalesced atomic.Int64 // submissions that joined an existing flight
	inflight  atomic.Int64 // flights currently running
}

// FlightStats is the exported single-flight counter snapshot.
type FlightStats struct {
	// Flights counts coalesced executions started — the number of
	// times the engine actually compiled for cacheable submissions.
	Flights int64 `json:"flights"`
	// Coalesced counts submissions that joined an existing flight
	// instead of compiling.
	Coalesced int64 `json:"coalesced"`
	// Inflight is the current number of running flights.
	Inflight int64 `json:"inflight"`
}

// FlightStats snapshots the single-flight counters.
func (e *Engine) FlightStats() FlightStats {
	return FlightStats{
		Flights:   e.fstats.flights.Load(),
		Coalesced: e.fstats.coalesced.Load(),
		Inflight:  e.fstats.inflight.Load(),
	}
}

// runCoalesced resolves one cacheable submission through the flight
// table, filling r. The caller already missed the cache.
func (e *Engine) runCoalesced(ctx context.Context, r *Result, j Job, key, qkey string, timeout time.Duration) {
	f, fctx, joined := e.flights.join(key, func() bool {
		// The runner that just finished may have published between
		// our cache miss and this lock: re-probe memory before
		// starting a redundant compile.
		if m, hit := e.cache.peek(key); hit {
			m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
			r.Metrics = m
			r.CacheHit = true
			return false
		}
		if ctx.Err() != nil {
			// The submitter already left (a canceled hedge loser, a
			// caller past its deadline): a flight started now would
			// be canceled at once and still count as a compile.
			r.Err = ctxErr(ctx, j)
			return false
		}
		return true
	})
	switch {
	case f == nil:
		return
	case joined:
		e.fstats.coalesced.Add(1)
		r.Coalesced = true
	default:
		e.fstats.flights.Add(1)
		e.fstats.inflight.Add(1)
		go e.runFlight(fctx, f, j, key, qkey, timeout)
	}
	o, ok := e.flights.wait(ctx, key, f)
	if !ok {
		r.Err = ctxErr(ctx, j)
		return
	}
	m := o.m
	m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
	r.Metrics = m
	r.Err = o.err
	r.WatchdogTrips = o.wdTrips
	r.Quarantined = o.wdTrips > 0 && e.isQuarantined(qkey)
	r.ProgramHit = o.tier.programHit
	r.SkeletonHit = o.tier.skeletonHit
	r.SkeletonFallbacks = o.tier.fallbacks
	if !r.Coalesced {
		// Only the runner's submission reports the retry count; a
		// waiter did not re-execute anything.
		r.Retries = o.retries
	}
}

// runFlight is the flight's runner goroutine: execute through the
// program tier (with the engine's usual retry), record quarantine,
// publish to the cache, then resolve the flight.
func (e *Engine) runFlight(fctx context.Context, f *flight[attemptOutcome], j Job, key, qkey string, timeout time.Duration) {
	defer e.fstats.inflight.Add(-1)
	if h := e.flightHook; h != nil {
		h(key)
	}
	o := e.attempt(fctx, j, timeout, nil, e.program)
	if o.wdTrips > 0 {
		e.recordWatchdogTrips(qkey, o.wdTrips)
	}
	// The tier outcome is transport, not a result payload: move it out
	// of the metrics before they are cached or handed to waiters.
	o.tier, o.m.tier = o.m.tier, tierOutcome{}
	if o.err == nil {
		e.cache.Put(key, o.m)
	}
	e.flights.finish(key, f, o)
}

// ctxErr resolves a submission whose own context ended before its
// flight did: ErrTimeout for an expired deadline, ErrCanceled
// otherwise.
func ctxErr(ctx context.Context, j Job) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("engine: job %s/%s coalesced wait: %w", j.Workload, j.Config, ErrTimeout)
	}
	return fmt.Errorf("%w: job %s/%s: %w", ErrCanceled, j.Workload, j.Config, context.Canceled)
}
