package storm

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos/netchaos"
	"repro/internal/load"
)

// TestCleanRun: with no faults armed the whole pipeline — warmup,
// traffic, reconvergence — must hold every invariant.
func TestCleanRun(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Shards:         3,
		Keys:           3,
		Requests:       9,
		Workers:        4,
		RequestTimeout: 20 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("clean run violated invariants: %+v", rep.Violations)
	}
	if rep.OKWarm != 3 || rep.OKStorm != 9 || rep.OKFinal != 3 {
		t.Fatalf("ok counts: warm=%d storm=%d final=%d", rep.OKWarm, rep.OKStorm, rep.OKFinal)
	}
}

// TestKillRun: killing a shard after the warm phase must lose
// nothing — every request is served ok by the survivors.
func TestKillRun(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Shards:         3,
		Keys:           3,
		Requests:       9,
		Workers:        4,
		Kill:           true,
		RequestTimeout: 20 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("kill run violated invariants: %+v", rep.Violations)
	}
	if rep.Lost != 0 || rep.OKStorm != 9 {
		t.Fatalf("kill run: lost=%d ok_storm=%d, want 0/9", rep.Lost, rep.OKStorm)
	}
}

// churnPlan is the mild latency-only schedule churn runs under: it
// makes seeds meaningful (different request/fault interleavings per
// seed) without being able to fail a request outright, so the
// zero-loss requirement stays falsifiable against churn itself.
func churnPlan(seed int64) netchaos.Plan {
	return netchaos.Plan{Seed: seed, LatencyRate: 160, MaxLatencyMS: 20}
}

// TestChurnRun (acceptance): a mid-burst kill -9 of a shard and its
// restart with an empty store at the same address must lose nothing —
// exactly one terminal ok-class response per request — and the farm
// must reconverge: the final pass is all cache hits, the restarted
// shard's keys read through its peers.
func TestChurnRun(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rep, err := Run(context.Background(), Config{
			Shards:         3,
			Keys:           4,
			Requests:       24,
			Workers:        6,
			Churn:          true,
			Plan:           churnPlan(seed),
			RequestTimeout: 20 * time.Second,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Passed() {
			t.Fatalf("seed %d violated invariants: %+v", seed, rep.Violations)
		}
		if rep.Lost != 0 || rep.OKStorm != 24 {
			t.Fatalf("seed %d: lost=%d ok_storm=%d, want 0/24", seed, rep.Lost, rep.OKStorm)
		}
		if rep.KilledShard == "" {
			t.Fatalf("seed %d: report names no killed shard", seed)
		}
	}
}

// TestFaultRun: one seeded schedule end to end. Faults are injected
// (the report must show them), classes stay valid, and the cluster
// reconverges.
func TestFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedule run in -short mode")
	}
	rep, err := Run(context.Background(), Config{
		Shards:         3,
		Keys:           4,
		Requests:       24,
		Workers:        6,
		Plan:           netchaos.DefaultPlan(1),
		RequestTimeout: 20 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("seed 1 violated invariants: %+v", rep.Violations)
	}
	if rep.Faults.Total() == 0 {
		t.Fatal("default plan injected no faults at all")
	}
}

// TestProfileFaultRun (acceptance): bursty profile-shaped traffic
// under a real fault schedule. The serving invariants must hold when
// overload-shaped arrivals and injected faults land together, and the
// report must record the profile so a red run replays from (profile,
// seed) alone.
func TestProfileFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fault schedule run in -short mode")
	}
	rep, err := Run(context.Background(), Config{
		Shards:         3,
		Keys:           4,
		Requests:       24,
		Workers:        6,
		Plan:           netchaos.DefaultPlan(1),
		Profile:        load.Bursty,
		ProfileSpan:    time.Second,
		RequestTimeout: 20 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("bursty profile under seed 1 violated invariants: %+v", rep.Violations)
	}
	if rep.Profile != string(load.Bursty) {
		t.Fatalf("report profile = %q, want %q", rep.Profile, load.Bursty)
	}
	if rep.Faults.Total() == 0 {
		t.Fatal("default plan injected no faults at all")
	}
}
