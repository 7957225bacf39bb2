package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/compiler"
	"repro/internal/ir"
)

// The program tier sits between the result cache and the skeleton
// tier. Jobs that differ only in Sim, SimConfig, Entry or Args share a
// ProgramKey and compile to the same program, so a result-cache miss
// first looks the compiled program up and, on a hit, only simulates.
// A miss compiles exactly as before (replaying or recording the
// formation skeleton) and publishes the program. Concurrent misses on
// one program key share one compile through a flight table with the
// result tier's lifecycle. The tier lives in memory only: it holds
// compact clones of at most programMemLimit programs, least recently
// used evicted first, and never a profile or formation trace.

// programMemLimit bounds the program tier.
const programMemLimit = 16

// programCache is the program tier: an LRU of compiled programs and
// its lookup counters.
type programCache struct {
	mem          *lru[*compiled]
	hits, misses atomic.Int64
}

func newProgramCache() *programCache {
	return &programCache{mem: newLRU[*compiled](programMemLimit)}
}

// programOutcome is one program flight's result.
type programOutcome struct {
	c    *compiled
	tier tierOutcome
	err  error
}

// ProgramStats is the program tier's observability snapshot.
type ProgramStats struct {
	// Hits counts compiles the tier saved: lookups served by a cached
	// program or by a running compile of the same program that
	// succeeded. Misses counts the compiles it started.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the number of programs held now.
	Entries int `json:"entries"`
}

// ProgramStats snapshots the program tier.
func (e *Engine) ProgramStats() ProgramStats {
	return ProgramStats{Hits: e.progs.hits.Load(), Misses: e.progs.misses.Load(), Entries: e.progs.mem.len()}
}

// program is the program tier's compileFunc: it returns j's compiled
// program from the cache, from a running compile of it, or from a
// compile it starts and publishes. ctx bounds only the wait: a waiter
// that leaves never cancels a compile other waiters still want.
func (e *Engine) program(ctx context.Context, j Job) (*compiled, tierOutcome, error) {
	pkey, err := ProgramKey(j)
	if err != nil {
		return nil, tierOutcome{}, err
	}
	var c *compiled
	var hit bool
	f, fctx, joined := e.pflights.join(pkey, func() bool {
		c, hit = e.progs.mem.get(pkey)
		return !hit && ctx.Err() == nil
	})
	if f == nil {
		if !hit {
			return nil, tierOutcome{}, ctx.Err()
		}
		e.progs.hits.Add(1)
		return c, tierOutcome{programHit: true}, nil
	}
	if !joined {
		e.progs.misses.Add(1)
		go e.compileFlight(fctx, f, j, pkey)
	}
	o, ok := e.pflights.wait(ctx, pkey, f)
	switch {
	case !ok:
		return nil, tierOutcome{}, ctx.Err()
	case joined && o.err == nil:
		// A joined waiter counts as a hit only once the shared
		// compile has produced a program.
		e.progs.hits.Add(1)
		return o.c, tierOutcome{programHit: true}, nil
	}
	return o.c, o.tier, o.err
}

// compileFlight is a program flight's runner: compile, publish the
// program, then resolve the flight.
func (e *Engine) compileFlight(fctx context.Context, f *flight[programOutcome], j Job, pkey string) {
	o := e.compileFormed(fctx, j)
	if o.err == nil {
		e.progs.mem.put(pkey, o.c)
	}
	e.pflights.finish(pkey, f, o)
}

// compileFormed compiles j through the skeleton tier: a hit replays
// the recorded formation trace, a miss records one and publishes it.
// The program it returns is a compact clone of the compiler's output,
// since merging leaves slack in the instruction slices the cache would
// otherwise retain. A panic resolves to an ErrPanic error: the runner
// goroutine has no caller to recover it.
func (e *Engine) compileFormed(ctx context.Context, j Job) (o programOutcome) {
	defer func() {
		if rec := recover(); rec != nil {
			o = programOutcome{err: fmt.Errorf("%w: %v\n%s", ErrPanic, rec, debug.Stack())}
		}
	}()
	var skey string
	if skeletonEligible(j) {
		if sk, err := SkeletonKey(j); err == nil {
			skey = sk
			if tr, ok := e.skel.get(ctx, skey); ok {
				j.Opts.FormTrace = tr
			} else {
				j.Opts.RecordFormTrace = true
			}
		}
	}
	t0 := time.Now()
	res, err := compiler.CompileContext(ctx, j.Source, j.Opts)
	if err != nil {
		return programOutcome{err: err}
	}
	if j.Opts.FormTrace != nil {
		o.tier = tierOutcome{skeletonHit: true, fallbacks: res.Replay.Fallbacks}
		e.skel.fallbacks.Add(int64(res.Replay.Fallbacks))
		e.instLat.Record(time.Since(t0).Nanoseconds())
	} else if skey != "" && res.FormTrace != nil {
		e.skel.put(skey, res.FormTrace)
	}
	o.c = &compiled{prog: ir.CloneProgram(res.Prog), form: res.FormStats, up: res.UPStats, degraded: res.Degraded}
	return o
}
