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

// clusterShard is one in-process hbserved node: a real server.Server
// over a real engine whose cache reads through the sibling shards'
// artifact stores.
type clusterShard struct {
	url   string
	local *store.Mem
	cache *engine.Cache
	eng   *engine.Engine
	srv   *server.Server
	hs    *httptest.Server
	front *hswap // swappable handler, for fault injection
}

// hswap lets a test replace a running server's handler (to inject a
// tampering /artifact/ layer, for example). The box keeps the stored
// concrete type constant, as atomic.Value requires.
type handlerBox struct{ h http.Handler }

type hswap struct{ v atomic.Value }

func (h *hswap) store(hh http.Handler) { h.v.Store(handlerBox{hh}) }
func (h *hswap) handler() http.Handler { return h.v.Load().(handlerBox).h }

func (h *hswap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.handler().ServeHTTP(w, r)
}

// newCluster builds n fully wired shards: each one's cache is
// Tiered(own mem store, peer client over the other shards), each
// serves /artifact/ and /v1/jobs, and all of them agree on the key
// schema. Caller owns shutdown via the returned shards' hs.Close.
func newCluster(t *testing.T, n int) []*clusterShard {
	t.Helper()
	shards := make([]*clusterShard, n)
	urls := make([]string, n)
	for i := range shards {
		sw := &hswap{}
		sw.store(http.NotFoundHandler())
		hs := httptest.NewUnstartedServer(sw)
		shards[i] = &clusterShard{
			local: store.NewMem(),
			hs:    hs,
			front: sw,
			url:   "http://" + hs.Listener.Addr().String(),
		}
		urls[i] = shards[i].url
	}
	for i, sh := range shards {
		var peerURLs []string
		for j, u := range urls {
			if j != i {
				peerURLs = append(peerURLs, u)
			}
		}
		backing := store.NewTiered(sh.local,
			store.NewPeer("peers", engine.KeySchema, peerURLs, nil))
		sh.cache = engine.NewStoreCache(backing)
		sh.eng = engine.New(engine.Config{Workers: 4, Cache: sh.cache})
		srv, err := server.New(server.Config{
			Engine:        sh.eng,
			Workers:       4,
			QueueDepth:    64,
			ShardID:       fmt.Sprintf("shard-%d", i),
			ArtifactStore: sh.local,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.srv = srv
		sh.front.store(srv.Handler())
		sh.hs.Start()
		t.Cleanup(sh.hs.Close)
	}
	return shards
}

// newReadThroughPair wires two shards asymmetrically: shard 1 reads
// through shard 0's artifact endpoint, but shard 0 does not replicate
// into shard 1 (its cache has no peer tier). That makes the
// cross-node fetch path deterministic — in the symmetric newCluster
// topology, write-back replication can land the artifact in the
// sibling's local store before the test's second request probes the
// wire path.
func newReadThroughPair(t *testing.T) []*clusterShard {
	t.Helper()
	shards := make([]*clusterShard, 2)
	for i := range shards {
		sw := &hswap{}
		sw.store(http.NotFoundHandler())
		hs := httptest.NewUnstartedServer(sw)
		shards[i] = &clusterShard{
			local: store.NewMem(),
			hs:    hs,
			front: sw,
			url:   "http://" + hs.Listener.Addr().String(),
		}
	}
	for i, sh := range shards {
		var backing store.Store = sh.local
		if i == 1 {
			backing = store.NewTiered(sh.local,
				store.NewPeer("peers", engine.KeySchema, []string{shards[0].url}, nil))
		}
		sh.cache = engine.NewStoreCache(backing)
		sh.eng = engine.New(engine.Config{Workers: 4, Cache: sh.cache})
		srv, err := server.New(server.Config{
			Engine:        sh.eng,
			Workers:       4,
			QueueDepth:    64,
			ShardID:       fmt.Sprintf("shard-%d", i),
			ArtifactStore: sh.local,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.srv = srv
		sh.front.store(srv.Handler())
		sh.hs.Start()
		t.Cleanup(sh.hs.Close)
	}
	return shards
}

func clusterURLs(shards []*clusterShard) []string {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.url
	}
	return urls
}

// totalCompiles sums actual engine compiles across the cluster: every
// cacheable compile runs as exactly one program flight.
func totalCompiles(shards []*clusterShard) int64 {
	var n int64
	for _, s := range shards {
		n += s.eng.FlightStats().Flights
	}
	return n
}

func postJSON(t *testing.T, url string, req server.Request) (int, server.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out server.Response
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("undecodable response (status %d): %q", resp.StatusCode, raw)
	}
	return resp.StatusCode, out
}

// TestClusterSingleCompile is the headline acceptance property: N
// identical concurrent requests against a 3-shard cluster behind a
// front tier cost exactly one engine compile, and every request gets
// an equivalent successful response.
func TestClusterSingleCompile(t *testing.T) {
	shards := newCluster(t, 3)
	// Hedging deliberately trades duplicate work for tail latency; a
	// hedge firing mid-compile would legitimately cost a second
	// compile. Push the budget beyond the test horizon so the property
	// under test — coalescing — is isolated.
	f, err := New(Config{Shards: clusterURLs(shards), HedgeAfter: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(f.Handler())
	defer fs.Close()

	const n = 24
	req := server.Request{Source: testSrc, Args: []int64{32}, Sim: "timing"}
	body, _ := json.Marshal(req)
	var wg sync.WaitGroup
	var failures atomic.Int32
	cycles := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(fs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				failures.Add(1)
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out server.Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				failures.Add(1)
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK || out.Class != server.ClassOK || out.Metrics == nil {
				failures.Add(1)
				t.Errorf("request %d: status %d class %s", i, resp.StatusCode, out.Class)
				return
			}
			cycles[i] = out.Metrics.Cycles
		}(i)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d/%d requests failed", failures.Load(), n)
	}
	for i := 1; i < n; i++ {
		if cycles[i] != cycles[0] {
			t.Fatalf("request %d measured %d cycles, request 0 measured %d", i, cycles[i], cycles[0])
		}
	}
	if got := totalCompiles(shards); got != 1 {
		t.Fatalf("%d identical requests cost %d engine compiles cluster-wide, want exactly 1", n, got)
	}
}

// TestClusterPeerFetch: an artifact compiled on one shard is served
// to a sibling through the peer store — the sibling answers from the
// wire-fetched artifact without compiling.
func TestClusterPeerFetch(t *testing.T) {
	shards := newReadThroughPair(t)
	req := server.Request{Source: testSrc, Args: []int64{48}, Sim: "timing"}

	code, first := postJSON(t, shards[0].url, req)
	if code != http.StatusOK || first.Class != server.ClassOK {
		t.Fatalf("shard 0: status %d class %s", code, first.Class)
	}
	if shards[0].eng.FlightStats().Flights != 1 {
		t.Fatalf("shard 0 compiles = %d", shards[0].eng.FlightStats().Flights)
	}

	code, second := postJSON(t, shards[1].url, req)
	if code != http.StatusOK || second.Class != server.ClassOK {
		t.Fatalf("shard 1: status %d class %s", code, second.Class)
	}
	if !second.CacheHit {
		t.Fatal("shard 1 should have hit the peer store")
	}
	if got := shards[1].eng.FlightStats().Flights; got != 0 {
		t.Fatalf("shard 1 compiled %d times despite the peer artifact", got)
	}
	if second.Metrics.Cycles != first.Metrics.Cycles {
		t.Fatalf("peer-served metrics diverge: %d != %d", second.Metrics.Cycles, first.Metrics.Cycles)
	}
	ss := shards[1].cache.StoreStats()
	if ss == nil || len(ss.Tiers) != 2 || ss.Tiers[1].Hits != 1 {
		t.Fatalf("peer tier stats: %+v", ss)
	}
}

// TestClusterTamperedPeerArtifact: a shard whose artifact endpoint
// serves tampered bytes must be rejected by the reader's integrity
// check; the reader recomputes and still answers correctly.
func TestClusterTamperedPeerArtifact(t *testing.T) {
	shards := newReadThroughPair(t)
	req := server.Request{Source: testSrc, Args: []int64{64}, Sim: "timing"}

	code, first := postJSON(t, shards[0].url, req)
	if code != http.StatusOK || first.Class != server.ClassOK {
		t.Fatalf("shard 0: status %d class %s", code, first.Class)
	}

	// Interpose a tamperer on shard 0: artifact GETs get one payload
	// byte flipped after sealing — exactly what bit rot or a hostile
	// peer would produce. /v1/jobs traffic is untouched.
	inner := shards[0].front.handler()
	shards[0].front.store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && len(r.URL.Path) > len(store.ArtifactPath) &&
			r.URL.Path[:len(store.ArtifactPath)] == store.ArtifactPath {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK {
				body = bytes.Replace(body, []byte(`"cycles":`), []byte(`"cycles":9`), 1)
			}
			for k, vs := range rec.Header() {
				if k == "Content-Length" {
					continue
				}
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	}))

	code, second := postJSON(t, shards[1].url, req)
	if code != http.StatusOK || second.Class != server.ClassOK {
		t.Fatalf("shard 1: status %d class %s", code, second.Class)
	}
	if second.CacheHit {
		t.Fatal("tampered artifact was accepted as a cache hit")
	}
	if got := shards[1].eng.FlightStats().Flights; got != 1 {
		t.Fatalf("shard 1 compiles = %d, want 1 (recompute after rejecting tamper)", got)
	}
	if second.Metrics.Cycles != first.Metrics.Cycles {
		t.Fatalf("recomputed metrics diverge: %d != %d", second.Metrics.Cycles, first.Metrics.Cycles)
	}
	ss := shards[1].cache.StoreStats()
	if ss == nil || len(ss.Tiers) != 2 || ss.Tiers[1].IntegrityRejects == 0 {
		t.Fatalf("integrity reject not counted: %+v", ss)
	}
}

// TestClusterShardKillZeroLost: killing one shard mid-burst loses no
// responses — requests routed at the dead shard fail over to the
// survivors and every admitted request resolves successfully.
func TestClusterShardKillZeroLost(t *testing.T) {
	shards := newCluster(t, 3)
	f, err := New(Config{
		Shards:     clusterURLs(shards),
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(f.Handler())
	defer fs.Close()

	const n = 30
	var wg sync.WaitGroup
	var ok, lost atomic.Int32
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Distinct keys: the burst spreads across all shards.
			req := server.Request{Source: testSrc, Args: []int64{int64(200 + i)}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(fs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				lost.Add(1)
				t.Errorf("request %d: transport error: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var out server.Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				lost.Add(1)
				t.Errorf("request %d: undecodable: %v", i, err)
				return
			}
			if out.Class == server.ClassOK {
				ok.Add(1)
			} else {
				lost.Add(1)
				t.Errorf("request %d: class %s: %s", i, out.Class, out.Error)
			}
		}(i)
	}
	close(start)
	// Kill shard 0 while the burst is in flight.
	time.Sleep(5 * time.Millisecond)
	shards[0].hs.CloseClientConnections()
	shards[0].hs.Close()
	wg.Wait()

	if ok.Load() != n || lost.Load() != 0 {
		t.Fatalf("burst: %d ok, %d lost, want %d/0", ok.Load(), lost.Load(), n)
	}
}

// TestClusterViewChangeMidBurst: a membership view that arrives
// mid-burst — the old set's first shard confirmed dead, a new member
// alive — still yields exactly one successful terminal response per
// request: flights in progress finish on the set they started with,
// new requests route by the new view.
func TestClusterViewChangeMidBurst(t *testing.T) {
	shards := newCluster(t, 3)
	urls := clusterURLs(shards)
	f, err := New(Config{Shards: urls[:2]})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(f.Handler())
	defer fs.Close()

	const n = 20
	var wg sync.WaitGroup
	var responses, okCount atomic.Int32
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req := server.Request{Source: testSrc, Args: []int64{int64(300 + i)}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(fs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var out server.Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			responses.Add(1)
			if out.Class == server.ClassOK {
				okCount.Add(1)
			} else {
				t.Errorf("request %d: class %s: %s", i, out.Class, out.Error)
			}
		}(i)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	f.ApplyView(membershipView(map[string]cluster.State{
		urls[0]: cluster.StateDead,
		urls[1]: cluster.StateAlive,
		urls[2]: cluster.StateAlive,
	}))
	wg.Wait()

	if responses.Load() != n || okCount.Load() != n {
		t.Fatalf("%d responses (%d ok) for %d requests", responses.Load(), okCount.Load(), n)
	}
	if st := f.StatusSnapshot(); st.ViewApplies != 1 {
		t.Fatalf("view_applies = %d, want 1", st.ViewApplies)
	}
}

// TestClusterForwardsBodyVerbatim: the front hands the shard the bytes
// the client sent. A body within MaxRequestBytes that JSON re-encoding
// would grow past it (json.Marshal writes each '<' as six bytes) must
// be accepted at the front and at the shard alike.
func TestClusterForwardsBodyVerbatim(t *testing.T) {
	shards := newCluster(t, 1)
	f, err := New(Config{Shards: clusterURLs(shards), HedgeAfter: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()

	req := testRequest()
	req.Source += "\n// " + strings.Repeat("<", 300<<10) + "\n"
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(req); err != nil {
		t.Fatal(err)
	}
	if escaped, _ := json.Marshal(req); body.Len() >= server.MaxRequestBytes || len(escaped) <= server.MaxRequestBytes {
		t.Fatalf("body %d bytes, escaped %d; want them either side of %d", body.Len(), len(escaped), server.MaxRequestBytes)
	}
	w := httptest.NewRecorder()
	f.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", &body))
	var resp server.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Class != server.ClassOK {
		t.Fatalf("class %s (%s), want ok; status %d, decode error %v", resp.Class, resp.Error, w.Code, err)
	}
}

// TestClusterRelaysProgramHits: a request that differs from an earlier
// one only in its arguments is served from the shard's program tier,
// and the front relays that in the response and in program_hits.
func TestClusterRelaysProgramHits(t *testing.T) {
	shards := newCluster(t, 1)
	f, err := New(Config{Shards: clusterURLs(shards)})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(f.Handler())
	defer fs.Close()

	for i, want := range []bool{false, true} {
		req := server.Request{Source: testSrc, Args: []int64{int64(20 + i)}, Sim: "timing"}
		if code, out := postJSON(t, fs.URL, req); code != http.StatusOK || out.ProgramHit != want {
			t.Fatalf("request %d: status %d program_hit %v, want 200 and %v", i, code, out.ProgramHit, want)
		}
	}
	if got := f.StatusSnapshot().ProgramHits; got != 1 {
		t.Fatalf("front program_hits = %d, want 1", got)
	}
	if got := shards[0].eng.ProgramStats(); got.Hits != 1 || got.Misses != 1 {
		t.Fatalf("shard program stats %+v, want 1 hit and 1 miss", got)
	}
}
