package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim/timing"
)

const busySubmitSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + (i & 3); }
  return s;
}`

// TestSubmitCancelBetweenRetries covers the exactly-once contract when
// a submission's context dies between a retryable failure and its
// retry: the second attempt must not run, the result must surface the
// first attempt's error, and exactly one trace event must flush.
func TestSubmitCancelBetweenRetries(t *testing.T) {
	tr := NewTracer()
	e := New(Config{Workers: 1, Tracer: tr, RetryBackoff: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int32
	flaky := fmt.Errorf("transient: %w", ErrPanic) // retryable class
	res := e.Submit(ctx, Job{
		Workload: "w", Config: "cancel",
		Fn: func() (Metrics, error) {
			attempts.Add(1)
			cancel() // the caller walks away while the attempt fails
			return Metrics{}, flaky
		},
	})
	if got := attempts.Load(); got != 1 {
		t.Fatalf("canceled submission ran %d attempts, want 1", got)
	}
	if res.Retries != 0 {
		t.Fatalf("canceled submission reported %d retries", res.Retries)
	}
	if !errors.Is(res.Err, ErrPanic) {
		t.Fatalf("result should carry the attempt's error, got %v", res.Err)
	}
	if evs := tr.Events(); len(evs) != 1 {
		t.Fatalf("want exactly one trace event, got %d", len(evs))
	}

	// Contrast: the same failure with a live context retries once and
	// still flushes exactly one event.
	attempts.Store(0)
	res2 := e.Submit(context.Background(), Job{
		Workload: "w", Config: "retry",
		Fn: func() (Metrics, error) {
			if attempts.Add(1) == 1 {
				return Metrics{}, flaky
			}
			return Metrics{Result: 7}, nil
		},
	})
	if attempts.Load() != 2 || res2.Retries != 1 || res2.Err != nil {
		t.Fatalf("live retry: attempts=%d retries=%d err=%v", attempts.Load(), res2.Retries, res2.Err)
	}
	if evs := tr.Events(); len(evs) != 2 {
		t.Fatalf("want one trace event per submission (2 total), got %d", len(evs))
	}
}

// TestSubmitCancellationQuarantineInteraction walks the watchdog
// ledger through a canceled submission: the aborted submission's trip
// quarantines the job by itself, and later submissions are refused
// without running.
func TestSubmitCancellationQuarantineInteraction(t *testing.T) {
	tr := NewTracer()
	e := New(Config{Workers: 1, Tracer: tr, RetryBackoff: time.Millisecond})
	wdErr := fmt.Errorf("sim: %w", timing.ErrWatchdog)
	var attempts atomic.Int32
	job := func(body func() (Metrics, error)) Job {
		return Job{Workload: "stuck", Config: "wd", Fn: body}
	}

	// Submission 1: trips the watchdog while its context dies — one
	// attempt, and the job is quarantined.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := e.Submit(ctx, job(func() (Metrics, error) {
		attempts.Add(1)
		cancel()
		return Metrics{}, wdErr
	}))
	if attempts.Load() != 1 {
		t.Fatalf("canceled submission ran %d attempts, want 1", attempts.Load())
	}
	if !errors.Is(res.Err, timing.ErrWatchdog) {
		t.Fatalf("canceled submission err = %v, want watchdog", res.Err)
	}
	if res.WatchdogTrips != 1 || !res.Quarantined {
		t.Fatalf("after canceled trip: trips=%d quarantined=%v, want 1/true", res.WatchdogTrips, res.Quarantined)
	}

	// Submission 2: refused up front; the body never runs.
	res2 := e.Submit(context.Background(), job(func() (Metrics, error) {
		attempts.Add(1)
		return Metrics{}, nil
	}))
	if !errors.Is(res2.Err, ErrQuarantined) || !res2.Quarantined {
		t.Fatalf("second submission should be refused: err=%v quarantined=%v", res2.Err, res2.Quarantined)
	}
	if attempts.Load() != 1 {
		t.Fatal("quarantined submission still executed the body")
	}
	if evs := tr.Events(); len(evs) != 2 {
		t.Fatalf("want 2 trace events (one per submission), got %d", len(evs))
	}
}

// TestSubmitContextCancelMidSimulation cancels a real compile+simulate
// job mid-run: the timing simulator polls the context per block, so
// the submission resolves promptly as ErrCanceled without a retry.
func TestSubmitContextCancelMidSimulation(t *testing.T) {
	e := New(Config{Workers: 1, RetryBackoff: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := e.Submit(ctx, Job{
		Workload: "busy", Config: "cancel", Source: busySubmitSrc,
		Sim: SimTiming, Args: []int64{1 << 40},
	})
	if !errors.Is(res.Err, ErrCanceled) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", res.Err)
	}
	if res.Retries != 0 {
		t.Fatalf("canceled job must not retry, got %d", res.Retries)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancellation took %v — simulator is not polling the context", wall)
	}
}

// TestSubmitDeadlinePropagatesEndToEnd runs the same busy job under a
// per-job timeout and checks it classifies as ErrTimeout, while a
// generous deadline lets a small job finish normally.
func TestSubmitDeadlinePropagatesEndToEnd(t *testing.T) {
	e := New(Config{Workers: 1, RetryBackoff: -1})
	res := e.Submit(context.Background(), Job{
		Workload: "busy", Config: "deadline", Source: busySubmitSrc,
		Sim: SimTiming, Args: []int64{1 << 40}, Timeout: 30 * time.Millisecond,
	})
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", res.Err)
	}

	ok := e.Submit(context.Background(), Job{
		Workload: "busy", Config: "ok", Source: busySubmitSrc,
		Sim: SimFunctional, Args: []int64{100}, Timeout: 10 * time.Second,
	})
	if ok.Err != nil {
		t.Fatalf("small job under generous deadline failed: %v", ok.Err)
	}
}
