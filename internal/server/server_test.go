package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lang"
)

// busySrc spins long enough that any realistic per-request deadline
// expires mid-simulation; the simulators poll the context per block,
// so it cancels promptly instead of wedging a worker.
const busySrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + (i & 7); }
  return s;
}`

// fastSrc succeeds in well under a millisecond.
const fastSrc = `
func main() { return 42; }`

// --- taxonomy ---

func TestErrClassTaxonomy(t *testing.T) {
	for _, c := range Classes {
		if !c.Valid() {
			t.Errorf("class %q not Valid", c)
		}
	}
	if ErrClass("nope").Valid() {
		t.Error("bogus class reported Valid")
	}
	want := map[ErrClass]int{
		ClassOK: 200, ClassDegraded: 200, ClassInvalidInput: 400,
		ClassQuarantined: 422, ClassTimeout: 504, ClassShed: 429,
		ClassInternal: 500,
	}
	for c, status := range want {
		if got := c.HTTPStatus(); got != status {
			t.Errorf("%s: HTTPStatus = %d, want %d", c, got, status)
		}
	}
	// Breaker signals: ok counts as success, hard failures count as
	// failures, shed/invalid say nothing.
	for c, exp := range map[ErrClass][2]bool{
		ClassOK:           {false, true},
		ClassDegraded:     {true, true},
		ClassQuarantined:  {true, true},
		ClassTimeout:      {true, true},
		ClassInternal:     {true, true},
		ClassShed:         {false, false},
		ClassInvalidInput: {false, false},
	} {
		fail, count := c.BreakerSignal()
		if fail != exp[0] || count != exp[1] {
			t.Errorf("%s: BreakerSignal = (%v,%v), want (%v,%v)", c, fail, count, exp[0], exp[1])
		}
	}
}

func TestClassify(t *testing.T) {
	_, perr := lang.Parse("func (")
	if perr == nil {
		t.Fatal("expected parse error")
	}
	var lerr *lang.Error
	if !errors.As(perr, &lerr) {
		t.Fatalf("parse error %T does not unwrap to *lang.Error", perr)
	}
	cases := []struct {
		name string
		res  engine.Result
		want ErrClass
	}{
		{"ok", engine.Result{}, ClassOK},
		{"degraded", engine.Result{Metrics: engine.Metrics{
			Degraded: []core.Degradation{{Func: "f"}},
		}}, ClassDegraded},
		{"quarantined", engine.Result{Err: fmt.Errorf("x: %w", engine.ErrQuarantined)}, ClassQuarantined},
		{"timeout", engine.Result{Err: fmt.Errorf("x: %w", engine.ErrTimeout)}, ClassTimeout},
		{"canceled", engine.Result{Err: fmt.Errorf("x: %w", engine.ErrCanceled)}, ClassTimeout},
		{"frontend", engine.Result{Err: fmt.Errorf("x: %w", perr)}, ClassInvalidInput},
		{"panic", engine.Result{Err: fmt.Errorf("x: %w", engine.ErrPanic)}, ClassInternal},
		{"other", engine.Result{Err: errors.New("boom")}, ClassInternal},
	}
	for _, c := range cases {
		if got := Classify(c.res); got != c.want {
			t.Errorf("%s: Classify = %s, want %s", c.name, got, c.want)
		}
	}
}

// --- breaker state machine ---

func TestBreakerStateMachine(t *testing.T) {
	cfg := BreakerConfig{
		Window: 8, MinSamples: 2, FailureRate: 0.5,
		Backoff: 100 * time.Millisecond, MaxBackoff: time.Second,
		HalfOpenProbes: 2, JitterSeed: 7,
	}
	b := NewBreaker(cfg, 1)
	now := time.Unix(1000, 0)

	if ok, _ := b.Allow(now); !ok {
		t.Fatal("fresh breaker must admit")
	}
	b.Record(now, true)
	if st := b.Status(now); st.State != BreakerClosed {
		t.Fatalf("one failure below MinSamples must not trip (state %s)", st.State)
	}
	b.Record(now, true)
	st := b.Status(now)
	if st.State != BreakerOpen || st.Opens != 1 {
		t.Fatalf("2/2 failures at MinSamples=2 must open: %+v", st)
	}
	if ok, ra := b.Allow(now); ok || ra <= 0 {
		t.Fatalf("open breaker must reject with retry-after, got ok=%v ra=%v", ok, ra)
	}
	if _, ra := b.Allow(b.reopenAt.Add(-time.Microsecond)); ra.Milliseconds() < 1 {
		t.Fatalf("retry-after %v just before half-open renders as 0ms", ra)
	}

	// Jitter is bounded in [0.5x, 1.5x); past that the breaker must
	// half-open and admit exactly one probe.
	later := now.Add(150 * time.Millisecond)
	ok, _ := b.Allow(later)
	if !ok {
		t.Fatalf("breaker must half-open after max backoff; status %+v", b.Status(later))
	}
	if st := b.Status(later); st.State != BreakerHalfOpen || st.HalfOpens != 1 {
		t.Fatalf("expected half-open: %+v", st)
	}
	if ok, _ := b.Allow(later); ok {
		t.Fatal("second concurrent probe must be rejected")
	}
	// A probe that never executed must release its slot.
	b.ReleaseProbe()
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("released probe slot must re-admit")
	}

	// HalfOpenProbes=2: first success keeps half-open, second closes.
	b.Record(later, false)
	if st := b.Status(later); st.State != BreakerHalfOpen {
		t.Fatalf("one of two probes must not close: %+v", st)
	}
	if ok, _ := b.Allow(later); !ok {
		t.Fatal("next probe must be admitted")
	}
	b.Record(later, false)
	if st := b.Status(later); st.State != BreakerClosed || st.Closes != 1 {
		t.Fatalf("second probe success must close: %+v", st)
	}

	// Reopen from half-open on probe failure, with doubled backoff.
	b.Record(later, true)
	b.Record(later, true)
	if st := b.Status(later); st.State != BreakerOpen || st.Opens != 2 {
		t.Fatalf("must reopen: %+v", st)
	}
	probeAt := later.Add(350 * time.Millisecond) // > 1.5 * 2*Backoff
	if ok, _ := b.Allow(probeAt); !ok {
		t.Fatal("must half-open again")
	}
	b.Record(probeAt, true)
	st = b.Status(probeAt)
	if st.State != BreakerOpen || st.Opens != 3 {
		t.Fatalf("probe failure must reopen immediately: %+v", st)
	}
}

func TestBreakerJitterDeterministic(t *testing.T) {
	mk := func() *Breaker {
		return NewBreaker(BreakerConfig{JitterSeed: 42}, 9)
	}
	a, b := mk(), mk()
	for i := 0; i < 16; i++ {
		if x, y := a.backoff(), b.backoff(); x != y {
			t.Fatalf("jitter stream diverged at %d: %v vs %v", i, x, y)
		}
	}
}

// --- HTTP server ---

type testServer struct {
	s  *Server
	ts *httptest.Server
	t  *testing.T
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Config{Workers: 4})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		_ = s.Drain()
		ts.Close()
	})
	return &testServer{s: s, ts: ts, t: t}
}

// post submits one job and decodes its terminal response; it fails the
// test on transport or decoding errors (a lost response is exactly
// what the suite exists to rule out).
func (e *testServer) post(req Request) (Response, int) {
	e.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		e.t.Fatal(err)
	}
	hr, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("post: %v", err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		e.t.Fatalf("decode: %v", err)
	}
	if !resp.Class.Valid() {
		e.t.Fatalf("invalid class %q in response", resp.Class)
	}
	if got := resp.Class.HTTPStatus(); got != hr.StatusCode {
		e.t.Fatalf("class %s: status %d, want %d", resp.Class, hr.StatusCode, got)
	}
	if hdr := hr.Header.Get("X-Hbserved-Class"); hdr != string(resp.Class) {
		e.t.Fatalf("class header %q != body class %q", hdr, resp.Class)
	}
	if resp.Class == ClassShed && hr.Header.Get("Retry-After") == "" {
		e.t.Fatal("shed response missing Retry-After")
	}
	return resp, hr.StatusCode
}

func TestServerValidation(t *testing.T) {
	e := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  Request
		frag string
	}{
		{"neither", Request{}, "exactly one"},
		{"both", Request{Workload: "ammp_1", Source: fastSrc}, "exactly one"},
		{"unknown workload", Request{Workload: "nope"}, "unknown workload"},
		{"bad ordering", Request{Workload: "ammp_1", Ordering: "ZZZ"}, "unknown ordering"},
		{"bad sim", Request{Workload: "ammp_1", Sim: "quantum"}, "unknown simulator"},
		{"parse error", Request{Source: "func ("}, "invalid input"},
		{"check error", Request{Source: "func main() { return x; }"}, "invalid input"},
		{"arrays too large", Request{Source: "array a[1048577]; func main() { return 0; }"}, "over 1048576 words"},
	}
	for _, c := range cases {
		resp, status := e.post(c.req)
		if resp.Class != ClassInvalidInput || status != 400 {
			t.Errorf("%s: got class %s status %d", c.name, resp.Class, status)
		}
		if !strings.Contains(resp.Error, c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, resp.Error, c.frag)
		}
	}
	// Malformed JSON bodies are invalid-input too.
	hr, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 400 {
		t.Errorf("bad JSON: status %d, want 400", hr.StatusCode)
	}
}

// TestServerBodyBound: a body over MaxRequestBytes is invalid-input
// even when the request it spells is valid.
func TestServerBodyBound(t *testing.T) {
	e := newTestServer(t, Config{})
	pad := strings.Repeat(" ", MaxRequestBytes)
	for _, c := range []struct {
		src  string
		want ErrClass
	}{
		{fastSrc, ClassOK},
		{fastSrc + pad, ClassInvalidInput},
	} {
		resp, _ := e.post(Request{Source: c.src, Sim: "functional"})
		if resp.Class != c.want {
			t.Errorf("%d-byte source: class %s (%s), want %s", len(c.src), resp.Class, resp.Error, c.want)
		}
	}
}

func TestServerOKPaths(t *testing.T) {
	e := newTestServer(t, Config{})
	resp, _ := e.post(Request{Workload: "ammp_1", Sim: "timing", TimeoutMS: 30000})
	if resp.Class != ClassOK {
		t.Fatalf("ammp_1/timing: class %s (%s)", resp.Class, resp.Error)
	}
	if resp.Metrics == nil || resp.Metrics.Cycles <= 0 {
		t.Fatalf("ok response missing metrics: %+v", resp.Metrics)
	}
	// Same job again: served from the shared engine cache.
	resp2, _ := e.post(Request{Workload: "ammp_1", Sim: "timing", TimeoutMS: 30000})
	if resp2.Class != ClassOK || !resp2.CacheHit {
		t.Fatalf("repeat job: class %s cacheHit %v", resp2.Class, resp2.CacheHit)
	}
	if resp2.Metrics.Cycles != resp.Metrics.Cycles {
		t.Fatalf("cache returned different cycles: %d vs %d", resp2.Metrics.Cycles, resp.Metrics.Cycles)
	}
	// Inline source, functional sim.
	resp3, _ := e.post(Request{Source: fastSrc, Sim: "functional", TimeoutMS: 30000})
	if resp3.Class != ClassOK || resp3.Metrics.Result != 42 {
		t.Fatalf("inline source: class %s result %+v", resp3.Class, resp3.Metrics)
	}
}

func TestServerDeadlineTimeout(t *testing.T) {
	e := newTestServer(t, Config{})
	resp, status := e.post(Request{
		Source: busySrc, Sim: "timing", Args: []int64{1 << 40}, TimeoutMS: 30,
	})
	if resp.Class != ClassTimeout || status != 504 {
		t.Fatalf("got class %s status %d (%s)", resp.Class, status, resp.Error)
	}
}

func TestServerQueueFullSheds(t *testing.T) {
	e := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		DefaultTimeout: 2 * time.Second,
	})
	// Occupy the single worker and the single queue slot with slow
	// jobs, then a burst must shed.
	var wg sync.WaitGroup
	var mu sync.Mutex
	classes := map[ErrClass]int{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := e.post(Request{
				Source: busySrc, Sim: "timing", Args: []int64{1 << 40},
				TimeoutMS: 300, Class: "slow",
			})
			mu.Lock()
			classes[resp.Class]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if classes[ClassShed] == 0 {
		t.Fatalf("8 slow jobs on a 1-worker/1-slot server shed nothing: %v", classes)
	}
	if classes[ClassShed]+classes[ClassTimeout] != 8 {
		t.Fatalf("every response must be shed or timeout: %v", classes)
	}
	st := e.s.StatusSnapshot()
	if st.Shed["queue_full"] == 0 {
		t.Fatalf("expected queue_full sheds in %+v", st.Shed)
	}
}

// driveBreakerCycle pushes the "flaky" class breaker through a full
// open → half-open → close cycle using real requests: guaranteed
// timeouts to trip it, then fast successes to recover it.
func driveBreakerCycle(t *testing.T, e *testServer) {
	t.Helper()
	fail := Request{
		Source: busySrc, Sim: "timing", Args: []int64{1 << 40},
		TimeoutMS: 30, Class: "flaky",
	}
	okReq := Request{Source: fastSrc, Sim: "timing", TimeoutMS: 10000, Class: "flaky"}

	br := e.s.breakers.Get("flaky")
	deadline := time.Now().Add(15 * time.Second)
	for br.Status(time.Now()).Opens == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", br.Status(time.Now()))
		}
		resp, _ := e.post(fail)
		if resp.Class != ClassTimeout && resp.Class != ClassShed {
			t.Fatalf("trip request: unexpected class %s (%s)", resp.Class, resp.Error)
		}
	}
	// While open, requests of the class are shed without running.
	resp, _ := e.post(okReq)
	if resp.Class != ClassShed {
		t.Fatalf("open breaker admitted a request: %s", resp.Class)
	}
	// Recover: wait out the (jittered) backoff, probe with successes
	// until it closes.
	for br.Status(time.Now()).Closes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed: %+v", br.Status(time.Now()))
		}
		resp, _ := e.post(okReq)
		if resp.Class == ClassShed {
			time.Sleep(15 * time.Millisecond)
			continue
		}
		if resp.Class != ClassOK {
			t.Fatalf("probe: unexpected class %s (%s)", resp.Class, resp.Error)
		}
	}
	st := br.Status(time.Now())
	if st.Opens < 1 || st.HalfOpens < 1 || st.Closes < 1 {
		t.Fatalf("incomplete breaker cycle: %+v", st)
	}
	// Closed again: unrelated classes were never affected.
	if got := e.s.breakers.Get("flaky").Status(time.Now()).State; got != BreakerClosed {
		t.Fatalf("breaker not closed after recovery: %s", got)
	}
}

func TestServerBreakerCycle(t *testing.T) {
	e := newTestServer(t, Config{
		Breaker: BreakerConfig{
			Window: 8, MinSamples: 3, FailureRate: 0.5,
			Backoff: 40 * time.Millisecond, MaxBackoff: 200 * time.Millisecond,
			JitterSeed: 1,
		},
	})
	driveBreakerCycle(t, e)
}

// TestServerChaosUnderLoad is the tentpole acceptance test: concurrent
// requests against a chaos-armed engine at four seeds, asserting that
// every submit gets exactly one terminal response with a valid class,
// that a breaker completes an open/half-open/close cycle, that drain
// finishes within budget while requests are still arriving, and that
// no goroutines leak.
func TestServerChaosUnderLoad(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			plan := chaos.Plans(seed, 5)[int(seed)%5]
			eng := engine.New(engine.Config{Workers: 4, Chaos: &plan})
			s, err := New(Config{
				Engine: eng, Workers: 4, QueueDepth: 32,
				DefaultTimeout: 3 * time.Second, MaxTimeout: 30 * time.Second,
				DrainBudget: 500 * time.Millisecond,
				Breaker: BreakerConfig{
					Window: 8, MinSamples: 3, FailureRate: 0.5,
					Backoff: 40 * time.Millisecond, MaxBackoff: 200 * time.Millisecond,
					JitterSeed: seed,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			e := &testServer{s: s, ts: ts, t: t}

			// Phase 1: concurrent mixed burst — valid, invalid, and
			// guaranteed-timeout requests interleaved under fault
			// injection. post() itself asserts the one-terminal-
			// response contract per submit.
			mix := []Request{
				{Workload: "ammp_1", Sim: "timing", TimeoutMS: 20000},
				{Workload: "dhry", Sim: "timing", TimeoutMS: 20000},
				{Workload: "art_1"},
				{Source: fastSrc, Sim: "functional", TimeoutMS: 20000},
				{Workload: "nope"},
				{Workload: "ammp_1", Ordering: "ZZZ"},
				{Source: busySrc, Sim: "timing", Args: []int64{1 << 40}, TimeoutMS: 20},
			}
			var wg sync.WaitGroup
			var mu sync.Mutex
			var sent int64
			classes := map[ErrClass]int{}
			for c := 0; c < 6; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < len(mix); r++ {
						req := mix[(c+r)%len(mix)]
						resp, _ := e.post(req)
						mu.Lock()
						sent++
						classes[resp.Class]++
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			if classes[ClassInvalidInput] == 0 || classes[ClassTimeout] == 0 {
				t.Fatalf("mixed burst should produce invalid-input and timeout classes: %v", classes)
			}

			// Phase 2: a full breaker cycle under the same chaos plan.
			driveBreakerCycle(t, e)

			// Phase 3: drain while slow requests are in flight and new
			// ones keep arriving. Every in-flight request must still
			// get its one terminal response (hard-canceled past the
			// budget → timeout class), and late arrivals are shed.
			drainBurst := make(chan Response, 8)
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, _ := e.post(Request{
						Source: busySrc, Sim: "timing", Args: []int64{1 << 40},
						TimeoutMS: 20000, Class: "drainers",
					})
					drainBurst <- resp
				}()
			}
			time.Sleep(100 * time.Millisecond) // let them start executing
			t0 := time.Now()
			if err := s.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			drainWall := time.Since(t0)
			// Budget + hard-cancel grace + cooperative unwind slack.
			if limit := 3 * time.Second; drainWall > limit {
				t.Fatalf("drain took %v, budget-bounded limit %v", drainWall, limit)
			}
			wg.Wait()
			close(drainBurst)
			for resp := range drainBurst {
				if resp.Class != ClassTimeout && resp.Class != ClassShed && resp.Class != ClassOK {
					t.Fatalf("drain-burst response class %s (%s)", resp.Class, resp.Error)
				}
			}

			// Post-drain: admission refused, readiness reflects it.
			resp, _ := e.post(Request{Workload: "ammp_1"})
			if resp.Class != ClassShed {
				t.Fatalf("post-drain submit: class %s, want shed", resp.Class)
			}
			rr, err := http.Get(ts.URL + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			rr.Body.Close()
			if rr.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("readyz after drain: %d, want 503", rr.StatusCode)
			}
			hr, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("healthz after drain: %d, want 200", hr.StatusCode)
			}

			// Exactly-one-response, server side: every terminal
			// response went through respond() exactly once, so the
			// class counters must sum to the number of decoded
			// responses (post() already failed the test on any
			// transport- or double-response anomaly).
			st := s.StatusSnapshot()
			var counted int64
			for _, n := range st.Classes {
				counted += n
			}
			if counted == 0 || st.InFlight != 0 {
				t.Fatalf("bad terminal accounting: %+v", st)
			}

			// No goroutine leak: workers, sampler, and AfterFunc
			// helpers are all gone once drain returns and the client
			// pool is closed.
			ts.Close()
			http.DefaultClient.CloseIdleConnections()
			settleBy := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if n := runtime.NumGoroutine(); n <= baseline+8 {
					break
				}
				if time.Now().After(settleBy) {
					buf := make([]byte, 1<<20)
					n := runtime.Stack(buf, true)
					t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
						baseline, runtime.NumGoroutine(), buf[:n])
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestServerDrainIdempotent proves Drain is safe to call from several
// goroutines at once and never deadlocks on an idle server.
func TestServerDrainIdempotent(t *testing.T) {
	s, err := New(Config{Engine: engine.New(engine.Config{Workers: 2}), DrainBudget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Drain(); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent Drain deadlocked")
	}
}

// TestAdmitInstantTasksConcurrently races admission against workers
// that finish each task at once: every task has a zero deadline, so
// process sheds it for its queue age without touching the engine. A
// worker can then call inflight.Done before the admitting goroutine
// resumes after its send, so admission must count the task in flight
// before sending it (a late Add panics with a negative WaitGroup
// counter). Once drained, nothing may be left in flight. (Checked after
// Drain: a worker answers a task before it uncounts it.)
func TestAdmitInstantTasksConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, err := New(Config{Engine: engine.New(engine.Config{Workers: 1}), Workers: 8, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tk := &task{class: "instant", done: make(chan Response, 1)}
				if s.admit(tk) != admitOK {
					continue
				}
				if resp := <-tk.done; resp.Class != ClassShed {
					t.Errorf("instant task answered %s, want shed", resp.Class)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := s.StatusSnapshot().InFlight; n != 0 {
		t.Fatalf("in-flight %d after drain", n)
	}
}
