package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// heldJob is coalesceJob with a compile checkpoint that runs wait once,
// on the first checkpoint any compile of it reaches.
func heldJob(wait func()) Job {
	var once sync.Once
	j := coalesceJob()
	j.Opts.Checkpoint = func() error {
		once.Do(wait)
		return nil
	}
	return j
}

// TestSingleFlightCoalesces submits N identical cacheable jobs
// concurrently and proves exactly one compile ran: the compile's
// checkpoint holds it until every other submission has joined its
// program flight, so the schedule that matters — all N in flight at
// once — is forced, not hoped for. Every job then gets the same
// metrics, simulated from the one shared program.
func TestSingleFlightCoalesces(t *testing.T) {
	const n = 8
	e := New(Config{Workers: n})
	j := heldJob(func() {
		for e.FlightStats().Coalesced < n-1 {
			time.Sleep(time.Millisecond)
		}
	})

	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = e.Submit(context.Background(), j)
		}()
	}
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Metrics.Form.Merges <= 0 {
			t.Fatalf("result %d: empty metrics %+v", i, r.Metrics)
		}
		sameMetrics(t, fmt.Sprintf("result %d", i), r.Metrics, results[0].Metrics)
		if r.Coalesced {
			coalesced++
			if !r.ProgramHit {
				t.Fatalf("result %d joined the compile but reports no program hit", i)
			}
		}
	}
	if coalesced != n-1 {
		t.Fatalf("Coalesced on %d results, want %d", coalesced, n-1)
	}
	if fs := e.FlightStats(); fs != (FlightStats{Flights: 1, Coalesced: n - 1}) {
		t.Fatalf("FlightStats = %+v, want 1 compile, %d joined, none running", fs, n-1)
	}
	if s := e.ProgramStats(); s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("program stats %+v, want 1 miss and %d hits", s, n-1)
	}

	// The published entry makes the next submission a plain cache hit.
	r := e.Submit(context.Background(), j)
	if !r.CacheHit || r.Coalesced {
		t.Fatalf("post-flight submission: CacheHit=%v Coalesced=%v", r.CacheHit, r.Coalesced)
	}
}

// TestSingleFlightWaiterCancellation: a waiter whose context dies
// leaves the compile without killing it; the surviving waiter gets the
// real outcome.
func TestSingleFlightWaiterCancellation(t *testing.T) {
	e := New(Config{Workers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	j := heldJob(func() {
		close(started)
		<-release
	})

	ctx, cancel := context.WithCancel(context.Background())
	canceledRes := make(chan Result, 1)
	go func() { canceledRes <- e.Submit(ctx, j) }()
	<-started

	survivorRes := make(chan Result, 1)
	go func() { survivorRes <- e.Submit(context.Background(), j) }()
	for e.FlightStats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	r := <-canceledRes
	if !errors.Is(r.Err, ErrCanceled) {
		t.Fatalf("canceled waiter error = %v, want ErrCanceled", r.Err)
	}

	// The compile is still running (the survivor holds it open).
	if fs, n := e.FlightStats(), e.pflights.Len(); fs.Inflight != 1 || n != 1 {
		t.Fatalf("after one waiter left: Inflight = %d, %d flights; want 1 and 1", fs.Inflight, n)
	}
	close(release)
	rs := <-survivorRes
	if rs.Err != nil || !rs.Coalesced || rs.Metrics.Form.Merges <= 0 {
		t.Fatalf("survivor got err=%v Coalesced=%v metrics=%+v", rs.Err, rs.Coalesced, rs.Metrics)
	}
}

// TestSingleFlightDeadSubmission: a submission whose context already
// ended when it misses the cache resolves with ErrCanceled for a
// canceled context and ErrTimeout for an expired deadline, and starts
// no compile, so a client that left before its turn never counts as
// one.
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
		t.Fatalf("dead submissions started compiles: %+v", fs)
	}
}

// TestSingleFlightPublishRace: a compile's publish and a fresh
// submission racing the flight teardown must converge on the program
// tier. The flight publishes before it leaves the table, and a starting
// submission re-probes the tier under the table lock, so a submission
// can never miss both. Hammer the window with many rounds of concurrent
// identical submissions and count compiles: each program must compile
// exactly once. Each round changes the source, since jobs that differ
// only in Args share a program.
func TestSingleFlightPublishRace(t *testing.T) {
	e := New(Config{Workers: 8})
	const rounds = 40
	for i := range rounds {
		j := coalesceJob()
		j.Source = fmt.Sprintf("%s\n// round %d\n", coalesceSrc, i)
		var wg sync.WaitGroup
		for range 4 {
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
	if got := e.FlightStats().Flights; got != rounds {
		t.Fatalf("%d programs compiled %d times, want exactly one compile per program", rounds, got)
	}
}
