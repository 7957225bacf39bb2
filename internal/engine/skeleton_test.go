package engine_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
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

// stripTransport zeroes wall times and the engine-internal skeleton
// transport fields, which legitimately differ between a replayed and a
// from-scratch compile of the same job.
func stripTransport(m engine.Metrics) engine.Metrics {
	m.CompileNS, m.SimNS = 0, 0
	m.FormTrace = nil
	m.Replay = core.ReplayStats{}
	return m
}

// TestSkeletonTier drives the two-level lookup end to end: first
// compile records a skeleton, a sibling request (same program,
// different arguments) instantiates it, and the instantiated result
// is identical to a from-scratch compile of the same job.
func TestSkeletonTier(t *testing.T) {
	ctx := context.Background()
	e := engine.New(engine.Config{Workers: 1})

	base := testJob(t, "sieve", compiler.OrderIUPO1, engine.SimTiming)
	r1 := e.Submit(ctx, base)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.CacheHit || r1.SkeletonHit {
		t.Fatalf("first compile: CacheHit=%v SkeletonHit=%v, want false/false", r1.CacheHit, r1.SkeletonHit)
	}
	s := e.SkeletonStats()
	if s.Misses != 1 || s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("after record: %+v", s)
	}

	// Sibling request: different measurement arguments -> full-result
	// miss, skeleton hit.
	sib := base
	sib.Args = []int64{50}
	r2 := e.Submit(ctx, sib)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.CacheHit {
		t.Fatal("sibling request unexpectedly hit the full-result cache")
	}
	if !r2.SkeletonHit {
		t.Fatal("sibling request did not instantiate the skeleton")
	}
	if r2.SkeletonFallbacks != 0 {
		t.Fatalf("clean replay reported %d fallbacks", r2.SkeletonFallbacks)
	}
	s = e.SkeletonStats()
	if s.Hits != 1 || s.Fallbacks != 0 || s.InstSamples != 1 {
		t.Fatalf("after instantiation: %+v", s)
	}

	// Instantiated output must be indistinguishable from a
	// from-scratch compile of the sibling job.
	fresh := engine.New(engine.Config{Workers: 1}).Submit(ctx, sib)
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	if got, want := stripTransport(r2.Metrics), stripTransport(fresh.Metrics); !reflect.DeepEqual(got, want) {
		t.Fatalf("instantiated metrics diverge from fresh compile:\n got: %+v\nwant: %+v", got, want)
	}

	// Tightened capacities share the skeleton key but can invalidate
	// recorded preconditions; the replay must fall back, not diverge.
	tight := base
	tight.Opts.Cons = trips.Constraints{MaxInstrs: 12, MaxMemOps: 4, RegBanks: 4, MaxReadsPerBank: 2, MaxWritesPerBank: 2, FanoutFactor: 4}
	r3 := e.Submit(ctx, tight)
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if !r3.SkeletonHit {
		t.Fatal("tightened request did not consult the skeleton")
	}
	freshTight := engine.New(engine.Config{Workers: 1}).Submit(ctx, tight)
	if freshTight.Err != nil {
		t.Fatal(freshTight.Err)
	}
	if got, want := stripTransport(r3.Metrics), stripTransport(freshTight.Metrics); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback metrics diverge from fresh compile:\n got: %+v\nwant: %+v", got, want)
	}
	if e.SkeletonStats().Fallbacks != int64(r3.SkeletonFallbacks) {
		t.Fatalf("engine fallback counter %d != result fallbacks %d",
			e.SkeletonStats().Fallbacks, r3.SkeletonFallbacks)
	}

	// A repeat of the original request is a full-result hit and never
	// reaches the skeleton tier.
	r4 := e.Submit(ctx, base)
	if !r4.CacheHit || r4.SkeletonHit {
		t.Fatalf("repeat: CacheHit=%v SkeletonHit=%v, want true/false", r4.CacheHit, r4.SkeletonHit)
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
