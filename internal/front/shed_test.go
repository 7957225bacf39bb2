package front

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// shedStub starts a stub shard that sheds every request with the
// given Retry-After advice.
func shedStub(t *testing.T, retryMS int64) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Hbserved-Class", string(server.ClassShed))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.Response{
			Class: server.ClassShed, Error: "stub: shed", RetryAfterMS: retryMS,
		})
	})
	s := httptest.NewServer(mux)
	t.Cleanup(s.Close)
	return s.URL
}

// TestFrontPropagatesMaxShedRetryAfter (satellite): when every shard
// sheds, the front relays the shed with the MAX upstream Retry-After
// — not a synthesized constant — and counts the all-shards-shedding
// event.
func TestFrontPropagatesMaxShedRetryAfter(t *testing.T) {
	a := shedStub(t, 2000)
	b := shedStub(t, 7000)
	f, err := New(Config{Shards: []string{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()
	h := f.Handler()

	w, resp := post(t, h, testRequest())
	if resp.Class != server.ClassShed {
		t.Fatalf("class = %q, want shed", resp.Class)
	}
	if resp.RetryAfterMS != 7000 {
		t.Fatalf("retry_after_ms = %d, want the max upstream value 7000", resp.RetryAfterMS)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After header = %q, want %q", got, "7")
	}
	st := f.StatusSnapshot()
	if st.AllShardsShedding != 1 {
		t.Fatalf("all_shards_shedding = %d, want 1", st.AllShardsShedding)
	}
	if st.ShedFailovers == 0 {
		t.Fatal("no shed failover was counted, yet both shards were tried")
	}
}

// TestFrontShedFailsOverToHealthyShard: a single shedding shard is
// backpressure, not a terminal answer — the front walks to the next-
// ranked shard and returns its ok.
func TestFrontShedFailsOverToHealthyShard(t *testing.T) {
	req := testRequest()
	key := keyFor(t, req)
	var urls []string
	shedHost := ""
	behave := func(w http.ResponseWriter, r *http.Request) {
		if r.Host == shedHost {
			w.Header().Set("X-Hbserved-Class", string(server.ClassShed))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.Response{
				Class: server.ClassShed, Error: "stub: shed", RetryAfterMS: 1500,
			})
			return
		}
		writeOK(w)
	}
	a, b := stubPair(t, behave)
	urls = []string{a, b}
	// The rendezvous primary for this key sheds; the secondary is
	// healthy.
	order := store.Rank(key, urls)
	shedHost = strings.TrimPrefix(order[0], "http://")

	f, err := New(Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()

	_, resp := post(t, f.Handler(), req)
	if resp.Class != server.ClassOK {
		t.Fatalf("class = %q, want ok from the healthy secondary", resp.Class)
	}
	st := f.StatusSnapshot()
	if st.ShedFailovers != 1 {
		t.Fatalf("shed_failovers = %d, want 1", st.ShedFailovers)
	}
	if st.AllShardsShedding != 0 {
		t.Fatalf("all_shards_shedding = %d, want 0 (one shard answered)", st.AllShardsShedding)
	}
}

// threeShards starts three stub shards that answer ok unless behave
// (keyed by r.Host) handles the request first, and returns their URLs
// in rendezvous order for testRequest.
func threeShards(t *testing.T, behave func(w http.ResponseWriter, r *http.Request) bool) (order []string, servers map[string]*httptest.Server) {
	t.Helper()
	servers = map[string]*httptest.Server{}
	var urls []string
	for i := 0; i < 3; i++ {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			if !behave(w, r) {
				writeOK(w)
			}
		})
		s := httptest.NewServer(mux)
		t.Cleanup(s.Close)
		servers[s.URL] = s
		urls = append(urls, s.URL)
	}
	return store.Rank(keyFor(t, testRequest()), urls), servers
}

// TestFrontShedWalksEveryShard: when the top two shards shed, the
// front asks the third before relaying backpressure.
func TestFrontShedWalksEveryShard(t *testing.T) {
	shedding := map[string]bool{}
	order, _ := threeShards(t, func(w http.ResponseWriter, r *http.Request) bool {
		if !shedding[r.Host] {
			return false
		}
		w.Header().Set("X-Hbserved-Class", string(server.ClassShed))
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.Response{Class: server.ClassShed, RetryAfterMS: 1000})
		return true
	})
	shedding[hostOf(order[0])], shedding[hostOf(order[1])] = true, true
	f, err := New(Config{Shards: order, HedgeAfter: 30 * time.Second, HedgeMax: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()

	w, resp := post(t, f.Handler(), testRequest())
	if resp.Class != server.ClassOK || w.Header().Get("X-Hbfront-Shard") != order[2] {
		t.Fatalf("class %s from %q, want ok from the third shard %s", resp.Class, w.Header().Get("X-Hbfront-Shard"), order[2])
	}
	if st := f.StatusSnapshot(); st.ShedFailovers != 2 || st.AllShardsShedding != 0 {
		t.Fatalf("shed_failovers %d, all_shards_shedding %d; want 2 and 0", st.ShedFailovers, st.AllShardsShedding)
	}
}

// TestFrontFailoverWalksEveryShard: when the top two shards refuse
// connections, the front fails over to the third.
func TestFrontFailoverWalksEveryShard(t *testing.T) {
	order, servers := threeShards(t, func(http.ResponseWriter, *http.Request) bool { return false })
	servers[order[0]].Close()
	servers[order[1]].Close()
	f, err := New(Config{Shards: order, HedgeAfter: 30 * time.Second, HedgeMax: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()

	w, resp := post(t, f.Handler(), testRequest())
	if resp.Class != server.ClassOK || w.Header().Get("X-Hbfront-Shard") != order[2] {
		t.Fatalf("class %s (%s) from %q, want ok from the third shard %s", resp.Class, resp.Error, w.Header().Get("X-Hbfront-Shard"), order[2])
	}
	if st := f.StatusSnapshot(); st.Failovers != 2 {
		t.Fatalf("failovers = %d, want 2", st.Failovers)
	}
}

// TestFrontHedgeStandsDownAfterWalk: once a shed has sent the request
// to the second shard, the latency timer does not add a third try,
// however slow the second shard is.
func TestFrontHedgeStandsDownAfterWalk(t *testing.T) {
	var order []string
	var thirdAsked atomic.Int64
	order, _ = threeShards(t, func(w http.ResponseWriter, r *http.Request) bool {
		switch r.Host {
		case hostOf(order[0]):
			w.Header().Set("X-Hbserved-Class", string(server.ClassShed))
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.Response{Class: server.ClassShed, RetryAfterMS: 1000})
			return true
		case hostOf(order[1]):
			select {
			case <-time.After(600 * time.Millisecond):
			case <-r.Context().Done():
			}
		case hostOf(order[2]):
			thirdAsked.Add(1)
		}
		return false
	})
	f, err := New(Config{Shards: order, HedgeAfter: 100 * time.Millisecond, HedgeMax: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain()

	w, resp := post(t, f.Handler(), testRequest())
	if resp.Class != server.ClassOK || w.Header().Get("X-Hbfront-Shard") != order[1] {
		t.Fatalf("class %s from %q, want ok from the second shard %s", resp.Class, w.Header().Get("X-Hbfront-Shard"), order[1])
	}
	if st := f.StatusSnapshot(); st.ShedFailovers != 1 || st.Hedges != 0 || thirdAsked.Load() != 0 {
		t.Fatalf("shed_failovers %d, hedges %d, third shard asked %d times; want 1, 0, 0",
			st.ShedFailovers, st.Hedges, thirdAsked.Load())
	}
}
