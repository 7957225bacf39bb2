package front

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

const testSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}`

func testRequest() server.Request {
	return server.Request{Source: testSrc, Args: []int64{8}}
}

// keyFor computes the engine cache key the front will route on.
func keyFor(t *testing.T, req server.Request) string {
	t.Helper()
	job, _, inv := server.BuildJob(nil, req)
	if inv != nil {
		t.Fatalf("BuildJob: %+v", inv)
	}
	key, err := engine.Key(job)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// post sends one request through the front handler and decodes the
// terminal response.
func post(t *testing.T, h http.Handler, req server.Request) (*httptest.ResponseRecorder, server.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("undecodable response (status %d): %q", w.Code, w.Body.String())
	}
	return w, resp
}

func writeOK(w http.ResponseWriter) {
	w.Header().Set("X-Hbserved-Class", string(server.ClassOK))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(server.Response{Class: server.ClassOK, WallMS: 1})
}

// stubPair starts two stub shards sharing one behavior function
// (keyed by r.Host so a test can select behavior per shard after
// rendezvous order is known) and returns their URLs.
func stubPair(t *testing.T, behave func(w http.ResponseWriter, r *http.Request)) (a, b string) {
	t.Helper()
	mk := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/jobs", behave)
		s := httptest.NewServer(mux)
		t.Cleanup(s.Close)
		return s
	}
	return mk().URL, mk().URL
}

func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

// TestFrontRoutesToPrimary: a routable request lands on its
// rendezvous-primary shard, and the shard identity is surfaced.
func TestFrontRoutesToPrimary(t *testing.T) {
	var served sync.Map
	a, b := stubPair(t, func(w http.ResponseWriter, r *http.Request) {
		served.Store(r.Host, true)
		writeOK(w)
	})
	f, err := New(Config{Shards: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	primary := store.Rank(keyFor(t, req), []string{a, b})[0]

	w, resp := post(t, f.Handler(), req)
	if w.Code != http.StatusOK || resp.Class != server.ClassOK {
		t.Fatalf("status %d class %s: %s", w.Code, resp.Class, w.Body.String())
	}
	if got := w.Header().Get("X-Hbfront-Shard"); got != primary {
		t.Fatalf("served by %s, rendezvous primary is %s", got, primary)
	}
	if _, ok := served.Load(hostOf(primary)); !ok {
		t.Fatal("primary never saw the request")
	}
	other := a
	if primary == a {
		other = b
	}
	if _, ok := served.Load(hostOf(other)); ok {
		t.Fatal("non-primary shard was contacted without a hedge trigger")
	}
}

// TestFrontHedge: a primary that stalls past the hedge budget loses
// to the second-choice shard; the response arrives promptly and the
// hedge is counted.
func TestFrontHedge(t *testing.T) {
	var slowHost atomic.Value
	slowHost.Store("")
	a, b := stubPair(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server arms client-disconnect
		// detection (which cancels r.Context()) only once the body has
		// been consumed.
		io.Copy(io.Discard, r.Body)
		if r.Host == slowHost.Load().(string) {
			<-r.Context().Done() // stall until the front cancels the loser
			return
		}
		writeOK(w)
	})
	f, err := New(Config{
		Shards:     []string{a, b},
		HedgeAfter: 20 * time.Millisecond,
		HedgeMax:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	order := store.Rank(keyFor(t, req), []string{a, b})
	slowHost.Store(hostOf(order[0]))

	start := time.Now()
	w, resp := post(t, f.Handler(), req)
	if w.Code != http.StatusOK || resp.Class != server.ClassOK {
		t.Fatalf("status %d class %s: %s", w.Code, resp.Class, w.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged response took %s", elapsed)
	}
	if got := w.Header().Get("X-Hbfront-Shard"); got != order[1] {
		t.Fatalf("served by %s, want the hedge target %s", got, order[1])
	}
	if w.Header().Get("X-Hbfront-Hedged") != "1" {
		t.Fatal("hedged response not marked")
	}
	st := f.StatusSnapshot()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedge counters: %+v", st)
	}
}

// TestFrontFailover: a dead primary (transport error) fails over to
// the second choice immediately, without waiting for the hedge
// budget.
func TestFrontFailover(t *testing.T) {
	var served atomic.Value
	mk := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			served.Store(r.Host)
			writeOK(w)
		})
		return httptest.NewServer(mux)
	}
	sa, sb := mk(), mk()
	defer sa.Close()
	defer sb.Close()

	f, err := New(Config{
		Shards: []string{sa.URL, sb.URL},
		// A budget far above the test runtime: only true failover can
		// reach the second shard.
		HedgeAfter: 30 * time.Second,
		HedgeMax:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	order := store.Rank(keyFor(t, req), []string{sa.URL, sb.URL})
	if order[0] == sa.URL {
		sa.Close()
	} else {
		sb.Close()
	}

	w, resp := post(t, f.Handler(), req)
	if w.Code != http.StatusOK || resp.Class != server.ClassOK {
		t.Fatalf("status %d class %s: %s", w.Code, resp.Class, w.Body.String())
	}
	if got := w.Header().Get("X-Hbfront-Shard"); got != order[1] {
		t.Fatalf("served by %s, want surviving shard %s", got, order[1])
	}
	if st := f.StatusSnapshot(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
}

// TestFrontCoalesce: N identical concurrent requests cross the wire
// once. The stub holds its response until every other request has
// joined the flight, so the coalescing window is forced.
func TestFrontCoalesce(t *testing.T) {
	const n = 8
	var upstream atomic.Int32
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		upstream.Add(1)
		io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		writeOK(w)
	})
	s := httptest.NewServer(mux)
	defer s.Close()

	f, err := New(Config{Shards: []string{s.URL}, HedgeAfter: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	go func() {
		for f.flights.Stats().Coalesced < n-1 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()

	var wg sync.WaitGroup
	codes := make([]int, n)
	classes := make([]server.ErrClass, n)
	body, _ := json.Marshal(testRequest())
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var r server.Response
			raw, _ := io.ReadAll(resp.Body)
			json.Unmarshal(raw, &r)
			codes[i], classes[i] = resp.StatusCode, r.Class
		}(i)
	}
	wg.Wait()

	if got := upstream.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests crossed the wire %d times, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || classes[i] != server.ClassOK {
			t.Fatalf("request %d: status %d class %s", i, codes[i], classes[i])
		}
	}
	st := f.StatusSnapshot()
	if st.Coalesced != n-1 {
		t.Fatalf("Coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// TestFrontFlightCanceledWhenWaitersLeave: a waiter that leaves a
// front flight leaves it to the others, and once the last waiter has
// left, the upstream try's context is canceled instead of running on
// to the flight's own deadline.
func TestFrontFlightCanceledWhenWaitersLeave(t *testing.T) {
	arrived := make(chan struct{})
	canceled := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		close(arrived)
		<-r.Context().Done()
		close(canceled)
	})
	s := httptest.NewServer(mux)
	defer s.Close()
	f, err := New(Config{Shards: []string{s.URL}, HedgeAfter: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	req.TimeoutMS = 60_000
	body, _ := json.Marshal(req)
	wait := func(ctx context.Context, done chan<- server.ErrClass) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		f.Handler().ServeHTTP(w, r)
		done <- server.ErrClass(w.Header().Get("X-Hbserved-Class"))
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan server.ErrClass, 2)
	go wait(ctx1, done)
	<-arrived
	go wait(ctx2, done)
	for f.flights.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if c := <-done; c != server.ClassTimeout {
		t.Fatalf("first waiter to leave got class %q, want %q", c, server.ClassTimeout)
	}
	if n := f.flights.Len(); n != 1 {
		t.Fatalf("%d flights after one of two waiters left, want 1", n)
	}
	cancel2()
	if c := <-done; c != server.ClassTimeout {
		t.Fatalf("last waiter to leave got class %q, want %q", c, server.ClassTimeout)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("every waiter left the flight, but its upstream try was not canceled")
	}
}

// TestFrontDrain: draining sheds new work, readyz reports 503, and
// Drain returns only after in-flight requests resolved.
func TestFrontDrain(t *testing.T) {
	a, b := stubPair(t, func(w http.ResponseWriter, r *http.Request) { writeOK(w) })
	f, err := New(Config{Shards: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}

	w, resp := post(t, h, testRequest())
	if w.Code != http.StatusTooManyRequests || resp.Class != server.ClassShed {
		t.Fatalf("post-drain submit: status %d class %s", w.Code, resp.Class)
	}
	r := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, r)
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", rw.Code)
	}
}

// TestFrontInvalidInput: malformed bodies are rejected at the front
// without touching any shard.
func TestFrontInvalidInput(t *testing.T) {
	var touched atomic.Int32
	a, b := stubPair(t, func(w http.ResponseWriter, r *http.Request) {
		touched.Add(1)
		writeOK(w)
	})
	f, err := New(Config{Shards: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	for _, body := range []string{"{not json", `{"unknown_field":1}`, `{"workload":"x","source":"y"}`, `{"source":"not tl (("}`} {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, w.Code)
		}
		var resp server.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Class != server.ClassInvalidInput {
			t.Errorf("body %q: class %s", body, resp.Class)
		}
	}
	if touched.Load() != 0 {
		t.Fatalf("invalid input reached a shard %d times", touched.Load())
	}
}
