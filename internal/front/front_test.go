package front

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
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
		for f.coalesced.Load() < n-1 {
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

// membershipView builds a View with the given member states for
// ApplyView tests.
func membershipView(states map[string]cluster.State) cluster.View {
	var ms []cluster.Member
	for u, s := range states {
		ms = append(ms, cluster.Member{Addr: u, State: s})
	}
	return cluster.View{Version: 2, Members: ms}
}

// TestFrontDeadShardSkipped: once membership confirms the rendezvous
// primary dead, it leaves the routing set, so no try is ever launched
// at it and the next rank serves immediately.
func TestFrontDeadShardSkipped(t *testing.T) {
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
	order := store.Rank(keyFor(t, req), []string{a, b})

	f.ApplyView(membershipView(map[string]cluster.State{
		order[0]: cluster.StateDead,
		order[1]: cluster.StateAlive,
	}))

	w, resp := post(t, f.Handler(), req)
	if w.Code != http.StatusOK || resp.Class != server.ClassOK {
		t.Fatalf("status %d class %s: %s", w.Code, resp.Class, w.Body.String())
	}
	if got := w.Header().Get("X-Hbfront-Shard"); got != order[1] {
		t.Fatalf("served by %s, want the surviving shard %s", got, order[1])
	}
	if _, ok := served.Load(hostOf(order[0])); ok {
		t.Fatal("a try was launched at a confirmed-dead shard")
	}

	st := f.StatusSnapshot()
	if st.ViewApplies != 1 {
		t.Fatalf("ViewApplies = %d, want 1", st.ViewApplies)
	}
	// /statusz lists the routing set's shards, in its order.
	if len(st.Shards) != 1 || st.Shards[0].URL != order[1] || st.Shards[0].State != "serving" {
		t.Fatalf("routing set %+v, want only the serving shard %s", st.Shards, order[1])
	}
}

// TestFrontSuspectDeprioritized (satellite): a suspected primary is
// moved behind healthy shards rather than skipped — the healthy
// second choice serves first and the reroute is counted, but the
// suspect remains a last-resort candidate.
func TestFrontSuspectDeprioritized(t *testing.T) {
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
	order := store.Rank(keyFor(t, req), []string{a, b})

	f.ApplyView(membershipView(map[string]cluster.State{
		order[0]: cluster.StateSuspect,
		order[1]: cluster.StateAlive,
	}))

	w, resp := post(t, f.Handler(), req)
	if w.Code != http.StatusOK || resp.Class != server.ClassOK {
		t.Fatalf("status %d class %s: %s", w.Code, resp.Class, w.Body.String())
	}
	if got := w.Header().Get("X-Hbfront-Shard"); got != order[1] {
		t.Fatalf("served by %s, want the healthy shard %s", got, order[1])
	}
	if _, ok := served.Load(hostOf(order[0])); ok {
		t.Fatal("the suspected shard was contacted despite a healthy primary answering")
	}

	st := f.StatusSnapshot()
	if st.SuspectDeprioritized == 0 {
		t.Fatalf("suspect reroute not counted: %+v", st)
	}
	states := map[string]string{}
	for _, sh := range st.Shards {
		states[sh.URL] = sh.State
	}
	if states[order[0]] != "suspect" || states[order[1]] != "serving" {
		t.Fatalf("shard states = %+v", states)
	}
}

// TestFrontPoolHoldsOnlyViewMembers: a member that leaves the view
// leaves the shard pool, so a churning cluster does not grow it.
func TestFrontPoolHoldsOnlyViewMembers(t *testing.T) {
	const seed = "http://127.0.0.1:1"
	f, err := New(Config{Shards: []string{seed}})
	if err != nil {
		t.Fatal(err)
	}
	var last cluster.View
	for i := 0; i < 1000; i++ {
		last = membershipView(map[string]cluster.State{
			seed: cluster.StateAlive,
			fmt.Sprintf("http://127.0.0.2:%d", 1000+i): cluster.StateAlive,
		})
		f.ApplyView(last)
	}
	f.mu.RLock()
	n := len(f.pool)
	f.mu.RUnlock()
	if n != len(last.Members) {
		t.Fatalf("pool holds %d shards after 1000 views, want the last view's %d members", n, len(last.Members))
	}
}

// TestFrontViewFlapKeepsShardState: shard structs are pooled across
// ApplyView calls, so a membership flap does not reset a shard's
// counters or latency history.
func TestFrontViewFlapKeepsShardState(t *testing.T) {
	a, b := stubPair(t, func(w http.ResponseWriter, r *http.Request) { writeOK(w) })
	f, err := New(Config{Shards: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	if w, _ := post(t, f.Handler(), req); w.Code != http.StatusOK {
		t.Fatalf("warm request failed: %d", w.Code)
	}
	before := f.StatusSnapshot()

	flap := membershipView(map[string]cluster.State{
		a: cluster.StateAlive,
		b: cluster.StateAlive,
	})
	f.ApplyView(flap)
	f.ApplyView(flap)

	after := f.StatusSnapshot()
	var reqsBefore, reqsAfter int64
	for _, sh := range before.Shards {
		reqsBefore += sh.Requests
	}
	for _, sh := range after.Shards {
		reqsAfter += sh.Requests
	}
	if reqsBefore == 0 || reqsAfter != reqsBefore {
		t.Fatalf("per-shard counters reset across view flap: before=%d after=%d", reqsBefore, reqsAfter)
	}
}
