package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Single-flight: identical in-flight cacheable jobs — same content
// key — coalesce onto one execution. The first submission becomes the
// flight's runner; every later identical submission joins as a waiter
// and receives a copy of the runner's outcome. Combined with the
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
//     (cache.peek under the flight-table lock) closes that window.

// flight is one in-flight coalesced execution.
type flight struct {
	done chan struct{} // closed after out is set
	out  attemptOutcome

	waiters int // guarded by Engine.fmu; runner counts as one
	cancel  context.CancelFunc
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
	e.fmu.Lock()
	f, ok := e.flights[key]
	if ok {
		// Join the running flight.
		f.waiters++
		e.fmu.Unlock()
		e.fstats.coalesced.Add(1)
		r.Coalesced = true
		e.wait(ctx, r, j, f)
		return
	}
	// No flight. The runner that just finished may have published
	// between our cache miss and this lock: re-probe memory before
	// starting a redundant compile.
	if m, hit := e.cache.peek(key); hit {
		e.fmu.Unlock()
		m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
		r.Metrics = m
		r.CacheHit = true
		return
	}
	if ctx.Err() != nil {
		// The submitter already left (a canceled hedge loser, a caller
		// past its deadline): a flight started now would be canceled
		// at once and still count as a compile.
		e.fmu.Unlock()
		r.Err = ctxErr(ctx, j)
		return
	}
	fctx, cancel := context.WithCancel(context.Background())
	f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	e.flights[key] = f
	e.fmu.Unlock()
	e.fstats.flights.Add(1)
	e.fstats.inflight.Add(1)

	go e.runFlight(fctx, f, j, key, qkey, timeout)
	e.wait(ctx, r, j, f)
}

// runFlight is the flight's runner goroutine: execute (with the
// engine's usual retry), record quarantine, publish to the cache,
// remove the flight from the table, then wake the waiters.
func (e *Engine) runFlight(fctx context.Context, f *flight, j Job, key, qkey string, timeout time.Duration) {
	defer e.fstats.inflight.Add(-1)
	if h := e.flightHook; h != nil {
		h(key)
	}
	// Second-level lookup: a full-result miss still avoids the greedy
	// formation search when a skeleton recorded under the job's
	// parameter-independent key exists — the compile replays it, and a
	// miss records a fresh one for every future sibling request.
	var skey string
	if e.skel != nil && skeletonEligible(j) {
		if sk, kerr := SkeletonKey(j); kerr == nil {
			skey = sk
			if tr, ok := e.skel.get(fctx, skey); ok {
				j.Opts.FormTrace = tr
			} else {
				j.Opts.RecordFormTrace = true
			}
		}
	}
	o := e.attempt(fctx, j, timeout, e.injector(j))
	if o.wdTrips > 0 {
		e.recordWatchdogTrips(qkey, o.wdTrips)
	}
	if o.err == nil {
		if j.Opts.FormTrace != nil {
			o.skelHit = true
			o.skelFallbacks = o.m.Replay.Fallbacks
			e.skel.fallbacks.Add(int64(o.m.Replay.Fallbacks))
			e.instLat.Record(o.m.CompileNS)
		} else if skey != "" && o.m.FormTrace != nil {
			e.skel.put(skey, o.m.FormTrace)
		}
		m := o.m
		m.FormTrace = nil
		e.cache.Put(key, m)
	}
	// The trace is cache transport, not a result payload: never hand
	// it to waiters.
	o.m.FormTrace = nil
	f.out = o
	e.fmu.Lock()
	if e.flights[key] == f {
		delete(e.flights, key)
	}
	e.fmu.Unlock()
	close(f.done)
	f.cancel()
}

// wait blocks one submission on its flight, resolving with the flight
// outcome or the submission's own context ending, whichever is first.
// The last-departing waiter cancels the flight's context so a compile
// nobody wants anymore unwinds cooperatively.
func (e *Engine) wait(ctx context.Context, r *Result, j Job, f *flight) {
	select {
	case <-f.done:
	case <-ctx.Done():
		e.leave(r.Key, f)
		r.Err = ctxErr(ctx, j)
		return
	}
	o := f.out
	m := o.m
	m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
	r.Metrics = m
	r.Err = o.err
	r.WatchdogTrips = o.wdTrips
	r.Quarantined = o.wdTrips > 0 && e.isQuarantined(quarantineKey(j, r.Key))
	r.SkeletonHit = o.skelHit
	r.SkeletonFallbacks = o.skelFallbacks
	if !r.Coalesced {
		// Only the runner's submission reports the retry count; a
		// waiter did not re-execute anything.
		r.Retries = o.retries
	}
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

// leave removes one waiter from the flight; the last one out cancels
// the flight's context and retires it from the table so late arrivals
// start fresh instead of inheriting a canceled outcome.
func (e *Engine) leave(key string, f *flight) {
	e.fmu.Lock()
	f.waiters--
	last := f.waiters <= 0
	if last && e.flights[key] == f {
		delete(e.flights, key)
	}
	e.fmu.Unlock()
	if last {
		f.cancel()
	}
}
