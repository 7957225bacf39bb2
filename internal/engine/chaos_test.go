package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/sim/timing"
)

// TestWatchdogQuarantine exercises the quarantine path: a job that
// trips the simulator watchdog is not retried but quarantined at once,
// and later submissions of the same job fail fast with ErrQuarantined
// without running the body.
func TestWatchdogQuarantine(t *testing.T) {
	var calls atomic.Int64
	j := engine.Job{
		Workload: "wedged", Config: "base",
		Fn: func() (engine.Metrics, error) {
			calls.Add(1)
			return engine.Metrics{}, fmt.Errorf("sim: %w", timing.ErrWatchdog)
		},
	}
	e := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond})

	r := e.Run([]engine.Job{j})[0]
	if !errors.Is(r.Err, timing.ErrWatchdog) {
		t.Fatalf("err = %v, want watchdog", r.Err)
	}
	if r.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (a watchdog trip is not retried)", r.Retries)
	}
	if r.WatchdogTrips != 1 {
		t.Errorf("WatchdogTrips = %d, want 1", r.WatchdogTrips)
	}
	if !r.Quarantined {
		t.Error("job not quarantined at its watchdog trip")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("body ran %d times, want 1", got)
	}

	// Resubmission: refused outright, body never runs.
	r2 := e.Run([]engine.Job{j})[0]
	if !errors.Is(r2.Err, engine.ErrQuarantined) {
		t.Fatalf("resubmission err = %v, want ErrQuarantined", r2.Err)
	}
	if !r2.Quarantined {
		t.Error("resubmission result not marked Quarantined")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("quarantined body ran anyway (%d calls)", got)
	}

	// A different job is unaffected.
	ok := engine.Job{Workload: "healthy", Config: "base",
		Fn: func() (engine.Metrics, error) { return engine.Metrics{Result: 7}, nil }}
	if r3 := e.Run([]engine.Job{ok})[0]; r3.Err != nil || r3.Metrics.Result != 7 {
		t.Errorf("healthy job after quarantine: result %d err %v", r3.Metrics.Result, r3.Err)
	}

	// A fresh engine forgets the quarantine (it is engine-lifetime
	// state, not global).
	if r4 := engine.New(engine.Config{Workers: 1, RetryBackoff: -1}).Run([]engine.Job{j})[0]; errors.Is(r4.Err, engine.ErrQuarantined) {
		t.Error("quarantine leaked across engines")
	}
}

// TestWatchdogTripSimulatesOnce runs a real job into the cycle
// watchdog: sieve under (IUPO) with MaxCycles 5000. The trip is
// deterministic, so the one submission returns the watchdog error
// without a retry and quarantines the job, and a second submission
// is refused.
func TestWatchdogTripSimulatesOnce(t *testing.T) {
	j := testJob(t, "sieve", compiler.OrderIUPO1, engine.SimTiming)
	j.SimConfig = timing.DefaultConfig()
	j.SimConfig.MaxCycles = 5000
	e := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond})

	r := e.Submit(context.Background(), j)
	var stuck *timing.StuckError
	if !errors.Is(r.Err, timing.ErrWatchdog) || !errors.As(r.Err, &stuck) {
		t.Fatalf("err = %v, want a watchdog trip with its report", r.Err)
	}
	if r.Retries != 0 || r.WatchdogTrips != 1 || !r.Quarantined {
		t.Fatalf("retries=%d trips=%d quarantined=%v, want 0/1/true", r.Retries, r.WatchdogTrips, r.Quarantined)
	}

	r2 := e.Submit(context.Background(), j)
	if !errors.Is(r2.Err, engine.ErrQuarantined) || !r2.Quarantined {
		t.Fatalf("second submission: err=%v quarantined=%v, want ErrQuarantined", r2.Err, r2.Quarantined)
	}
}

// TestTraceFlushedMidRun verifies the satellite fix: each job's trace
// event is written as the job finishes, so finished cells are visible
// in the trace while another job is still hung.
func TestTraceFlushedMidRun(t *testing.T) {
	tr := engine.NewTracer()
	release := make(chan struct{})
	jobs := []engine.Job{
		{Workload: "hung", Config: "c", Fn: func() (engine.Metrics, error) {
			<-release
			return engine.Metrics{}, nil
		}},
		{Workload: "fast", Config: "c", Fn: func() (engine.Metrics, error) {
			return engine.Metrics{Result: 42}, nil
		}},
	}
	e := engine.New(engine.Config{Workers: 2, Tracer: tr})
	done := make(chan struct{})
	go func() { e.Run(jobs); close(done) }()

	// The fast job's event must appear while the hung job is still
	// blocked inside Run.
	deadline := time.After(5 * time.Second)
	for {
		evs := tr.Events()
		if len(evs) == 1 && evs[0].Workload == "fast" {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("fast job's event not flushed mid-run (events: %v)", evs)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	<-done
	if evs := tr.Events(); len(evs) != 2 {
		t.Fatalf("got %d events after run, want 2", len(evs))
	}
}

// TestTraceFlushedOnTimeout: a job killed by the engine deadline still
// produces a trace event carrying the timeout error.
func TestTraceFlushedOnTimeout(t *testing.T) {
	tr := engine.NewTracer()
	j := engine.Job{
		Workload: "stuck", Config: "c", Timeout: 20 * time.Millisecond,
		Fn: func() (engine.Metrics, error) {
			time.Sleep(5 * time.Second)
			return engine.Metrics{}, nil
		},
	}
	e := engine.New(engine.Config{Workers: 1, Tracer: tr, RetryBackoff: -1})
	r := e.Run([]engine.Job{j})[0]
	if !errors.Is(r.Err, engine.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", r.Err)
	}
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d trace events, want 1", len(evs))
	}
	if evs[0].Error == "" {
		t.Error("timed-out job's trace event has no error")
	}
}

// hotPlan is aggressive enough to land faults on even a tiny workload
// while staying far below the watchdog gap.
func hotPlan(seed int64) chaos.Plan {
	return chaos.Plan{
		Seed:           seed,
		MispredictRate: 128,
		FetchStallRate: 256, MaxFetchStall: 8,
		CommitDelayRate: 256, MaxCommitDelay: 8,
		HopJitterRate: 512, MaxHopJitter: 4,
	}
}

// TestChaosBypassesCacheAndPreservesArchitecture is the engine-level
// invariant check: chaos jobs never read or write the result cache,
// their architectural results match the fault-free run exactly, their
// cycle counts only go up, and fault counts reach the trace.
func TestChaosBypassesCacheAndPreservesArchitecture(t *testing.T) {
	j := testJob(t, "sieve", compiler.OrderIUPO1, engine.SimTiming)

	// Fault-free baseline.
	base := engine.New(engine.Config{Workers: 1}).Run([]engine.Job{j})[0]
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	if base.Metrics.FaultsInjected != 0 {
		t.Fatalf("fault-free run recorded %d faults", base.Metrics.FaultsInjected)
	}

	plan := hotPlan(1)
	tr := engine.NewTracer()
	cache := engine.NewCache()
	e := engine.New(engine.Config{Workers: 1, Cache: cache, Tracer: tr, Chaos: &plan})

	r1 := e.Run([]engine.Job{j})[0]
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.CacheHit {
		t.Error("first chaos run hit the cache")
	}
	if r1.Metrics.FaultsInjected == 0 {
		t.Fatal("hot plan injected no faults")
	}
	if r1.Metrics.Result != base.Metrics.Result {
		t.Errorf("chaos changed result: %d vs %d", r1.Metrics.Result, base.Metrics.Result)
	}
	if fmt.Sprint(r1.Metrics.Output) != fmt.Sprint(base.Metrics.Output) {
		t.Errorf("chaos changed output: %v vs %v", r1.Metrics.Output, base.Metrics.Output)
	}
	if r1.Metrics.Cycles < base.Metrics.Cycles {
		t.Errorf("faults made the run faster: %d < %d cycles", r1.Metrics.Cycles, base.Metrics.Cycles)
	}
	if cache.Len() != 0 {
		t.Errorf("chaos run populated the cache (%d entries)", cache.Len())
	}

	// Second submission: still a miss (nothing was cached), and
	// deterministic — the stateless plan replays the same faults.
	r2 := e.Run([]engine.Job{j})[0]
	if r2.CacheHit {
		t.Error("second chaos run hit the cache")
	}
	if r2.Metrics.Cycles != r1.Metrics.Cycles || r2.Metrics.FaultsInjected != r1.Metrics.FaultsInjected {
		t.Errorf("chaos not deterministic: cycles %d/%d faults %d/%d",
			r1.Metrics.Cycles, r2.Metrics.Cycles,
			r1.Metrics.FaultsInjected, r2.Metrics.FaultsInjected)
	}

	// Fault counts are visible in the trace and its summary.
	sum := tr.Summary()
	if sum.Faults != r1.Metrics.FaultsInjected+r2.Metrics.FaultsInjected {
		t.Errorf("summary faults %d, want %d", sum.Faults, r1.Metrics.FaultsInjected+r2.Metrics.FaultsInjected)
	}
	for _, ev := range tr.Events() {
		if ev.Faults == 0 {
			t.Errorf("event %s/%s missing fault count", ev.Workload, ev.Config)
		}
	}
}
