package engine_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/trips"
)

// TestSkeletonKeyFactoring checks the skeleton/instantiation split:
// request-bound parameters (arguments, capacity constraints, register
// allocation, simulator) share one skeleton, while anything that
// steers the merge loop itself (source, ordering, fanout, policy)
// does not.
func TestSkeletonKeyFactoring(t *testing.T) {
	base := testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming)
	k1, err := engine.SkeletonKey(base)
	if err != nil {
		t.Fatal(err)
	}

	shared := map[string]func(j *engine.Job){
		"args":  func(j *engine.Job) { j.Args = []int64{7} },
		"entry": func(j *engine.Job) { j.Entry = "main" },
		"cons": func(j *engine.Job) {
			j.Opts.Cons = trips.Constraints{MaxInstrs: 64, MaxMemOps: 16, RegBanks: 4, MaxReadsPerBank: 8, MaxWritesPerBank: 8, FanoutFactor: 4}
		},
		"regalloc": func(j *engine.Job) { j.Opts.RegAlloc = true },
		"sim":      func(j *engine.Job) { j.Sim = engine.SimFunctional },
	}
	for name, mutate := range shared {
		j := base
		mutate(&j)
		if k, err := engine.SkeletonKey(j); err != nil || k != k1 {
			t.Errorf("instantiation-only dimension %q changed the skeleton key (err=%v)", name, err)
		}
	}

	split := map[string]func(j *engine.Job){
		"source":   func(j *engine.Job) { j.Source += "\n" },
		"ordering": func(j *engine.Job) { j.Opts.Ordering = compiler.OrderIUPthenO },
		"fanout":   func(j *engine.Job) { j.Opts.Cons = trips.Default(); j.Opts.Cons.FanoutFactor = 2 },
		"tweaks":   func(j *engine.Job) { j.Opts.CoreTweaks.NoHeadDup = true },
	}
	for name, mutate := range split {
		j := base
		mutate(&j)
		if k, err := engine.SkeletonKey(j); err != nil || k == k1 {
			t.Errorf("formation dimension %q did not change the skeleton key (err=%v)", name, err)
		}
	}
}

// stripNS zeroes the wall times, which legitimately differ between a
// cached, replayed or from-scratch compile of the same job.
func stripNS(m engine.Metrics) engine.Metrics {
	m.CompileNS, m.SimNS = 0, 0
	return m
}

// sameAsFresh fails the test unless r succeeded and its metrics equal,
// but for wall times, a fresh engine's result for the same job.
func sameAsFresh(t *testing.T, what string, r engine.Result) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", what, r.Err)
	}
	fresh := engine.New(engine.Config{Workers: 1}).Submit(context.Background(), r.Job)
	if fresh.Err != nil {
		t.Fatalf("%s: fresh engine: %v", what, fresh.Err)
	}
	if got, want := stripNS(r.Metrics), stripNS(fresh.Metrics); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: metrics diverge from a fresh engine:\n got: %+v\nwant: %+v", what, got, want)
	}
}

// TestSkeletonTier drives the three-level lookup end to end. The first
// compile records a skeleton; a sibling with other arguments is a
// program-tier hit that never reaches the skeleton tier; a sibling
// with tighter capacities compiles a new program by replaying the
// skeleton; and a second engine over the same backing store, as a
// peer shard would be, replays the stored skeleton. Every result equals
// a from-scratch compile of the same job.
func TestSkeletonTier(t *testing.T) {
	ctx := context.Background()
	backing := store.NewMem()
	e := engine.New(engine.Config{Workers: 1, Cache: engine.NewStoreCache(backing)})

	base := testJob(t, "sieve", compiler.OrderIUPO1, engine.SimTiming)
	r1 := e.Submit(ctx, base)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.CacheHit || r1.ProgramHit || r1.SkeletonHit {
		t.Fatalf("first compile: CacheHit=%v ProgramHit=%v SkeletonHit=%v, want all false", r1.CacheHit, r1.ProgramHit, r1.SkeletonHit)
	}
	s := e.SkeletonStats()
	if s.Misses != 1 || s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("after record: %+v", s)
	}

	// Sibling request: different measurement arguments -> full-result
	// miss, program hit, skeleton tier untouched.
	sib := base
	sib.Args = []int64{50}
	r2 := e.Submit(ctx, sib)
	if r2.CacheHit || !r2.ProgramHit || r2.SkeletonHit {
		t.Fatalf("sibling: CacheHit=%v ProgramHit=%v SkeletonHit=%v, want false/true/false", r2.CacheHit, r2.ProgramHit, r2.SkeletonHit)
	}
	if after := e.SkeletonStats(); after != s {
		t.Fatalf("program hit touched the skeleton tier: before %+v after %+v", s, after)
	}
	sameAsFresh(t, "sibling", r2)

	// Tightened capacities change the program key but share the
	// skeleton key, and can invalidate recorded preconditions; the
	// replay must fall back, not diverge.
	tight := base
	tight.Opts.Cons = trips.Constraints{MaxInstrs: 12, MaxMemOps: 4, RegBanks: 4, MaxReadsPerBank: 2, MaxWritesPerBank: 2, FanoutFactor: 4}
	r3 := e.Submit(ctx, tight)
	if r3.ProgramHit || !r3.SkeletonHit {
		t.Fatalf("tightened request: ProgramHit=%v SkeletonHit=%v, want false/true", r3.ProgramHit, r3.SkeletonHit)
	}
	sameAsFresh(t, "tightened", r3)
	if s := e.SkeletonStats(); s.Hits != 1 || s.InstSamples != 1 || s.Fallbacks != int64(r3.SkeletonFallbacks) {
		t.Fatalf("after replay: %+v, result fallbacks %d", s, r3.SkeletonFallbacks)
	}

	// A second engine over the same backing store has an empty program
	// tier and skeleton memory: it replays the stored skeleton.
	peer := engine.New(engine.Config{Workers: 1, Cache: engine.NewStoreCache(backing)})
	other := base
	other.Args = []int64{60}
	r4 := peer.Submit(ctx, other)
	if r4.CacheHit || r4.ProgramHit || !r4.SkeletonHit || r4.SkeletonFallbacks != 0 {
		t.Fatalf("peer: CacheHit=%v ProgramHit=%v SkeletonHit=%v fallbacks=%d, want false/false/true/0",
			r4.CacheHit, r4.ProgramHit, r4.SkeletonHit, r4.SkeletonFallbacks)
	}
	if ps := peer.SkeletonStats(); ps.StoreHits != 1 {
		t.Fatalf("peer skeleton stats %+v, want one store hit", ps)
	}
	sameAsFresh(t, "peer replay", r4)

	// A repeat of the original request is a full-result hit and never
	// reaches the program or skeleton tiers.
	r5 := e.Submit(ctx, base)
	if !r5.CacheHit || r5.ProgramHit || r5.SkeletonHit {
		t.Fatalf("repeat: CacheHit=%v ProgramHit=%v SkeletonHit=%v, want true/false/false", r5.CacheHit, r5.ProgramHit, r5.SkeletonHit)
	}

	// The BB baseline never forms, so it must not touch the tier.
	before := e.SkeletonStats()
	bb := testJob(t, "vadd", compiler.OrderBB, engine.SimTiming)
	if r := e.Submit(ctx, bb); r.Err != nil {
		t.Fatal(r.Err)
	}
	after := e.SkeletonStats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Puts != before.Puts {
		t.Fatalf("BB job touched the skeleton tier: before %+v after %+v", before, after)
	}
}
