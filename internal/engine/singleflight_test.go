package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const coalesceSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + (i & 7); }
  return s;
}`

func coalesceJob() Job {
	return Job{Workload: "w", Config: "base", Source: coalesceSrc, Args: []int64{64}}
}

// TestSingleFlightCoalesces submits N identical cacheable jobs
// concurrently and proves exactly one compile ran: the flight hook
// holds the runner until every other submission has joined the
// flight, so the schedule that matters — all N in flight at once — is
// forced, not hoped for.
func TestSingleFlightCoalesces(t *testing.T) {
	const n = 8
	e := New(Config{Workers: n})
	var compiles atomic.Int32
	release := make(chan struct{})
	e.flightHook = func(key string) {
		compiles.Add(1)
		<-release
	}
	go func() {
		// Let the runner go once the other n-1 submissions have joined.
		for e.FlightStats().Coalesced < n-1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Submit(context.Background(), coalesceJob())
		}(i)
	}
	wg.Wait()

	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d identical concurrent submissions compiled %d times, want 1", n, got)
	}
	var coalesced int
	var cycles int64
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Metrics.Form.Merges <= 0 {
			t.Fatalf("result %d: empty metrics %+v", i, r.Metrics)
		}
		if cycles == 0 {
			cycles = r.Metrics.CompileNS
		} else if r.Metrics.CompileNS != cycles {
			t.Fatalf("result %d: compile_ns %d != %d — waiters saw different outcomes", i, r.Metrics.CompileNS, cycles)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("Coalesced on %d results, want %d", coalesced, n-1)
	}
	fs := e.FlightStats()
	if fs.Flights != 1 || fs.Coalesced != n-1 || fs.Inflight != 0 {
		t.Fatalf("FlightStats = %+v", fs)
	}
	st := e.Cache().Stats()
	if st.Puts != 1 {
		t.Fatalf("cache puts = %d, want 1 (one publish per flight)", st.Puts)
	}

	// The published entry makes the next submission a plain cache hit.
	r := e.Submit(context.Background(), coalesceJob())
	if !r.CacheHit || r.Coalesced {
		t.Fatalf("post-flight submission: CacheHit=%v Coalesced=%v", r.CacheHit, r.Coalesced)
	}
}

// TestSingleFlightWaiterCancellation: a waiter whose context dies
// leaves the flight without killing it; the surviving waiters get the
// real outcome, and only when the last waiter leaves is the flight's
// own context canceled.
func TestSingleFlightWaiterCancellation(t *testing.T) {
	e := New(Config{Workers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	e.flightHook = func(key string) {
		close(started)
		<-release
	}

	ctx, cancel := context.WithCancel(context.Background())
	canceledRes := make(chan Result, 1)
	go func() { canceledRes <- e.Submit(ctx, coalesceJob()) }()
	<-started

	survivorRes := make(chan Result, 1)
	go func() { survivorRes <- e.Submit(context.Background(), coalesceJob()) }()
	for e.FlightStats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	r := <-canceledRes
	if !errors.Is(r.Err, ErrCanceled) {
		t.Fatalf("canceled waiter error = %v, want ErrCanceled", r.Err)
	}

	// The flight is still alive (the survivor holds it open).
	if fs := e.FlightStats(); fs.Inflight != 1 {
		t.Fatalf("Inflight = %d after one waiter left, want 1", fs.Inflight)
	}
	close(release)
	rs := <-survivorRes
	if rs.Err != nil || rs.Metrics.Form.Merges <= 0 {
		t.Fatalf("survivor got err=%v metrics=%+v", rs.Err, rs.Metrics)
	}
}

// TestSingleFlightDeadSubmission: a submission whose context already
// ended when it misses the cache resolves the way a departing waiter
// does — ErrCanceled for a canceled context, ErrTimeout for an expired
// deadline — and starts no flight, so a client that left before its
// turn never counts as a compile.
func TestSingleFlightDeadSubmission(t *testing.T) {
	e := New(Config{Workers: 2})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if r := e.Submit(canceled, coalesceJob()); !errors.Is(r.Err, ErrCanceled) {
		t.Fatalf("canceled submission error = %v, want ErrCanceled", r.Err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if r := e.Submit(expired, coalesceJob()); !errors.Is(r.Err, ErrTimeout) {
		t.Fatalf("expired submission error = %v, want ErrTimeout", r.Err)
	}
	if fs := e.FlightStats(); fs.Flights != 0 || fs.Inflight != 0 {
		t.Fatalf("dead submissions started flights: %+v", fs)
	}
}

// TestSingleFlightPublishRace: the runner's publish and a fresh
// submission racing the flight teardown must converge on the cache —
// the post-join peek under the flight lock means a submission can
// never both miss the cache and miss the flight. Hammer the window
// with many rounds of concurrent pairs and count total compiles: each
// distinct key must compile exactly once.
func TestSingleFlightPublishRace(t *testing.T) {
	e := New(Config{Workers: 8})
	var compiles atomic.Int32
	e.flightHook = func(key string) { compiles.Add(1) }

	const rounds = 40
	for i := 0; i < rounds; i++ {
		j := coalesceJob()
		j.Args = []int64{int64(100 + i)} // fresh key each round
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r := e.Submit(context.Background(), j); r.Err != nil {
					t.Error(r.Err)
				}
			}()
		}
		wg.Wait()
	}
	if got := compiles.Load(); got != rounds {
		t.Fatalf("%d keys compiled %d times, want exactly one compile per key", rounds, got)
	}
}
