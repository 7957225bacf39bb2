package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- Retry-After ---

func TestRetryAfterDeterministicJitter(t *testing.T) {
	mk := func() *overload { return newOverload(42) }
	a, b := mk(), mk()
	seen := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		x := a.retryAfter(4, 2, time.Second)
		y := b.retryAfter(4, 2, time.Second)
		if x != y {
			t.Fatalf("jitter stream diverged at %d: %s vs %s", i, x, y)
		}
		if x <= 0 {
			t.Fatalf("non-positive Retry-After %s", x)
		}
		seen[x] = true
	}
	if len(seen) < 3 {
		t.Fatalf("16 draws produced only %d distinct values — not jittered", len(seen))
	}
	// A different seed gives a different stream.
	cDiff := newOverload(43)
	same := 0
	for i := 0; i < 16; i++ {
		if cDiff.retryAfter(4, 2, time.Second) == a.retryAfter(4, 2, time.Second) {
			same++
		}
	}
	if same == 16 {
		t.Fatal("seeds 42 and 43 produced identical jitter streams")
	}
}

// TestRetryAfterTracksDrainRate: once warm, the advice scales with
// backlog and observed service time instead of the static fallback.
func TestRetryAfterTracksDrainRate(t *testing.T) {
	o := newOverload(1)
	for i := 0; i < statsMinSamples; i++ {
		o.observe(200 * time.Millisecond)
	}
	// 10 queued, 2 workers, ~200ms each → ~1.1s drain; jitter spans
	// [0.75, 1.25).
	got := o.retryAfter(10, 2, 10*time.Second)
	if got < 700*time.Millisecond || got > 1600*time.Millisecond {
		t.Fatalf("warm Retry-After = %s, want around the ~1.1s drain estimate", got)
	}
	// Cold estimator: bounded by the fallback, never zero.
	cold := newOverload(1)
	if got := cold.retryAfter(10, 2, time.Second); got <= 0 || got > 5*time.Second {
		t.Fatalf("cold Retry-After = %s", got)
	}
}

// --- server integration ---

// TestServerShedsAfterHalfDeadline: a queued request that has waited
// more than half its own deadline is shed as queue_age when a worker
// reaches it, with cold Retry-After advice near half that deadline;
// a request with a longer deadline waits the same time and runs.
func TestServerShedsAfterHalfDeadline(t *testing.T) {
	e := newTestServer(t, Config{Workers: 1, QueueDepth: 4, RetryJitterSeed: 1})
	waitFor := func(what string, cond func(Status) bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(e.s.StatusSnapshot()); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, e.s.StatusSnapshot())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The busy request holds the only worker for its whole 600ms.
	busy := make(chan Response, 1)
	go func() {
		resp, _ := e.post(Request{Source: busySrc, Sim: "timing", Args: []int64{1 << 40}, TimeoutMS: 600})
		busy <- resp
	}()
	waitFor("the busy request to start", func(st Status) bool { return st.InFlight == 1 && st.QueueLen == 0 })
	short := make(chan Response, 1)
	go func() {
		resp, _ := e.post(Request{Source: fastSrc, Sim: "timing", TimeoutMS: 200})
		short <- resp
	}()
	waitFor("the short request to queue", func(st Status) bool { return st.QueueLen == 1 })
	long, _ := e.post(Request{Source: fastSrc, Sim: "timing", TimeoutMS: 4000})

	if resp := <-short; resp.Class != ClassShed || !strings.Contains(resp.Error, "half the 200ms deadline") {
		t.Fatalf("200ms request queued behind a 600ms one: class %s (%s), want shed", resp.Class, resp.Error)
	} else if resp.RetryAfterMS < 75 || resp.RetryAfterMS > 125 {
		t.Fatalf("cold Retry-After %dms, want half the deadline (100ms) jittered by ±25%%", resp.RetryAfterMS)
	}
	if long.Class != ClassOK {
		t.Fatalf("4s request after the same wait: class %s (%s), want ok", long.Class, long.Error)
	}
	if resp := <-busy; resp.Class != ClassTimeout {
		t.Fatalf("busy request: class %s, want timeout", resp.Class)
	}
	if st := e.s.StatusSnapshot(); st.Shed["queue_age"] != 1 {
		t.Fatalf("shed causes %v, want one queue_age", st.Shed)
	}
}

// TestServerShedRetryAfterJittered: queue-pressure sheds carry
// positive, load-derived, jittered Retry-After.
func TestServerShedRetryAfterJittered(t *testing.T) {
	e := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		DefaultTimeout:  2 * time.Second,
		RetryJitterSeed: 7,
	})
	var mu sync.Mutex
	retries := map[int64]bool{}
	sheds := 0
	var wg sync.WaitGroup
	start := make(chan struct{})
	var ready sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			<-start
			resp, _ := e.post(Request{Source: busySrc, Sim: "timing", Args: []int64{1 << 40}, TimeoutMS: 300})
			if resp.Class == ClassShed {
				mu.Lock()
				sheds++
				if resp.RetryAfterMS <= 0 {
					mu.Unlock()
					t.Errorf("shed with Retry-After %d", resp.RetryAfterMS)
					return
				}
				retries[resp.RetryAfterMS] = true
				mu.Unlock()
			}
		}()
	}
	ready.Wait()
	close(start)
	wg.Wait()
	if sheds < 8 {
		t.Fatalf("only %d sheds from 24 offers against a 1×1 server", sheds)
	}
	if len(retries) < 3 {
		t.Fatalf("%d sheds produced only %d distinct Retry-After values: %v", sheds, len(retries), retries)
	}
}

// TestDrainUnderSustainedOverload (satellite): the client keeps
// offering load straight through a drain. Every offer gets exactly
// one terminal response, post-drain offers are shed, and the counters
// reconcile: terminal responses == offers, shed-cause breakdown ==
// the shed class count.
func TestDrainUnderSustainedOverload(t *testing.T) {
	eng := newTestServer(t, Config{
		Workers: 2, QueueDepth: 4,
		DefaultTimeout: 2 * time.Second, DrainBudget: 5 * time.Second,
		RetryJitterSeed: 3,
	})
	var offered, responses atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	post := func() (Response, bool) {
		body, _ := json.Marshal(Request{Source: busySrc, Sim: "timing", Args: []int64{1 << 40}, TimeoutMS: 500})
		hr, err := http.Post(eng.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return Response{}, false
		}
		defer hr.Body.Close()
		var resp Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil || !resp.Class.Valid() {
			return Response{}, false
		}
		return resp, true
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				offered.Add(1)
				if _, ok := post(); !ok {
					t.Error("offer lost: no terminal response")
					return
				}
				responses.Add(1)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond) // sustained offered load
	if err := eng.s.Drain(); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	// Offers continue against the drained server: all shed.
	for i := 0; i < 5; i++ {
		resp, ok := post()
		if !ok {
			t.Fatal("post-drain offer lost")
		}
		if resp.Class != ClassShed {
			t.Fatalf("post-drain offer got %q, want shed", resp.Class)
		}
		if resp.RetryAfterMS <= 0 {
			t.Fatal("post-drain shed missing Retry-After")
		}
	}
	close(stop)
	wg.Wait()

	if offered.Load() != responses.Load() {
		t.Fatalf("offered %d, terminal responses %d", offered.Load(), responses.Load())
	}
	st := eng.s.StatusSnapshot()
	var terminal int64
	for _, n := range st.Classes {
		terminal += n
	}
	// The 5 post-drain probes also funneled through respond().
	if want := offered.Load() + 5; terminal != want {
		t.Fatalf("class counters total %d, want %d (offered %d + 5 post-drain)", terminal, want, offered.Load())
	}
	var shedCauses int64
	for _, n := range st.Shed {
		shedCauses += n
	}
	if shedCauses != st.Classes[ClassShed] {
		t.Fatalf("shed causes sum to %d, shed class counted %d", shedCauses, st.Classes[ClassShed])
	}
	if st.Shed["draining"] < 5 {
		t.Fatalf("draining sheds = %d, want at least the 5 post-drain offers", st.Shed["draining"])
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after drain", st.InFlight)
	}
}
