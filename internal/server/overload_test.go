package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- service-time estimators ---

func TestClassStatsEstimate(t *testing.T) {
	var cs classStats
	if _, _, n := cs.estimate(); n != 0 {
		t.Fatal("fresh stats report samples")
	}
	// 9 samples of 10ms and one 100ms outlier: EWMA stays near 10ms,
	// p90 picks up the tail.
	for i := 0; i < 9; i++ {
		cs.record(10 * time.Millisecond)
	}
	cs.record(100 * time.Millisecond)
	ewma, p90, n := cs.estimate()
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
	if ewma < 10*time.Millisecond || ewma > 40*time.Millisecond {
		t.Fatalf("ewma = %s, want near 10ms (one outlier weighted %v)", ewma, ewmaAlpha)
	}
	if p90 != 100*time.Millisecond {
		t.Fatalf("p90 = %s, want the 100ms outlier", p90)
	}
}

// --- CoDel controller ---

func TestCodelBelowTargetNeverSheds(t *testing.T) {
	c := codel{target: 10 * time.Millisecond, interval: 40 * time.Millisecond}
	now := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Millisecond)
		if c.onDequeue(now, 5*time.Millisecond) {
			t.Fatalf("shed at %d with sojourn below target", i)
		}
	}
}

func TestCodelShedsAfterSustainedDelay(t *testing.T) {
	c := codel{target: 10 * time.Millisecond, interval: 40 * time.Millisecond}
	now := time.Unix(0, 0)
	// A transient above-target burst shorter than one interval: armed
	// but no sheds.
	for i := 0; i < 3; i++ {
		now = now.Add(5 * time.Millisecond)
		if c.onDequeue(now, 20*time.Millisecond) {
			t.Fatalf("shed %s into the burst, before a full interval elapsed", now.Sub(time.Unix(0, 0)))
		}
	}
	// Delay recovers: state resets.
	now = now.Add(5 * time.Millisecond)
	if c.onDequeue(now, 2*time.Millisecond) {
		t.Fatal("shed on a below-target dequeue")
	}
	// Sustained delay: the first shed lands once a full interval has
	// passed above target, and sheds keep coming while delay stays up
	// (spacing shrinks by the control law).
	sheds := 0
	for i := 0; i < 200; i++ {
		now = now.Add(2 * time.Millisecond)
		if c.onDequeue(now, 25*time.Millisecond) {
			sheds++
		}
	}
	if sheds < 3 {
		t.Fatalf("only %d sheds over 400ms of sustained over-target delay", sheds)
	}
	if dropping, count, drops := c.snapshot(); !dropping || count < 3 || drops != int64(sheds) {
		t.Fatalf("snapshot = (%v, %d, %d), sheds = %d", dropping, count, drops, sheds)
	}
	// Recovery exits dropping state.
	now = now.Add(2 * time.Millisecond)
	c.onDequeue(now, time.Millisecond)
	if dropping, _, _ := c.snapshot(); dropping {
		t.Fatal("still dropping after delay recovered")
	}
}

// TestCodelSpacingTightens: the control law spaces sheds closer as
// overload persists.
func TestCodelSpacingTightens(t *testing.T) {
	c := codel{interval: 100 * time.Millisecond}
	c.count = 1
	first := c.spacing()
	c.count = 16
	if tight := c.spacing(); tight >= first {
		t.Fatalf("spacing did not tighten: count 1 → %s, count 16 → %s", first, tight)
	}
	if got, want := c.spacing(), 25*time.Millisecond; got != want {
		t.Fatalf("spacing(count=16) = %s, want %s", got, want)
	}
}

// --- adaptive Retry-After ---

func TestRetryAfterDeterministicJitter(t *testing.T) {
	mk := func() *overload { return newOverload(time.Millisecond, 4*time.Millisecond, 42) }
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
	cDiff := newOverload(time.Millisecond, 4*time.Millisecond, 43)
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
	o := newOverload(time.Millisecond, 4*time.Millisecond, 1)
	for i := 0; i < statsMinSamples; i++ {
		o.observe("c", 200*time.Millisecond)
	}
	// 10 queued, 2 workers, ~200ms each → ~1.1s drain; jitter spans
	// [0.75, 1.25).
	got := o.retryAfter(10, 2, 10*time.Second)
	if got < 700*time.Millisecond || got > 1600*time.Millisecond {
		t.Fatalf("warm Retry-After = %s, want around the ~1.1s drain estimate", got)
	}
	// Cold estimator: bounded by the fallback, never zero.
	cold := newOverload(time.Millisecond, 4*time.Millisecond, 1)
	if got := cold.retryAfter(10, 2, time.Second); got <= 0 || got > 5*time.Second {
		t.Fatalf("cold Retry-After = %s", got)
	}
}

// --- admission gates ---

func TestAdmitGateColdInert(t *testing.T) {
	o := newOverload(time.Millisecond, 4*time.Millisecond, 1)
	// No samples at all, then a class below the warm threshold:
	// always admit.
	if o.missesDeadline("x", time.Millisecond, 1000, 1) {
		t.Fatal("cold gate shed, want admit")
	}
	for i := 0; i < statsMinSamples-1; i++ {
		o.observe("x", time.Second)
	}
	if o.missesDeadline("x", time.Millisecond, 1000, 1) {
		t.Fatal("under-sampled gate shed, want admit")
	}
}

func TestAdmitGateDeadline(t *testing.T) {
	o := newOverload(time.Millisecond, 4*time.Millisecond, 1)
	for i := 0; i < statsMinSamples; i++ {
		o.observe("slow", 100*time.Millisecond)
	}
	// Queue drain (4×100ms / 1 worker) + p90 100ms ≫ 50ms budget.
	if !o.missesDeadline("slow", 50*time.Millisecond, 4, 1) {
		t.Fatal("doomed request admitted, want deadline shed")
	}
	// A generous budget admits.
	if o.missesDeadline("slow", 10*time.Second, 4, 1) {
		t.Fatal("roomy deadline was rejected")
	}
}

// --- server integration ---

// TestServerShedRetryAfterJittered: queue-pressure sheds carry
// positive, load-derived, jittered Retry-After (satellite: the old
// constant MaxQueueAge advice is gone).
func TestServerShedRetryAfterJittered(t *testing.T) {
	e := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		DefaultTimeout: 2 * time.Second, MaxQueueAge: 800 * time.Millisecond,
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
