package front

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/server"
)

// ShardStatus is one backend's health as the front tier sees it.
type ShardStatus struct {
	URL      string `json:"url"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// P50MS/P95MS summarize the recent latency ring (0 until samples
	// exist); HedgeBudgetMS is the wait this shard currently earns
	// before a hedge launches.
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	HedgeBudgetMS float64 `json:"hedge_budget_ms"`
	// State is the failure detector's verdict on this member
	// (serving/suspect; empty when statically configured).
	State string `json:"state,omitempty"`
}

// Status is the front tier's /statusz document.
type Status struct {
	Build         buildinfo.Info `json:"build"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Draining      bool           `json:"draining"`

	Requests int64 `json:"requests"`
	Inflight int64 `json:"inflight"`
	// Coalesced counts requests that joined an existing flight;
	// CacheHits counts responses satisfied without a fresh compile
	// (shard cache hit, shard coalesce, or front coalesce); HitRate is
	// CacheHits/Requests.
	Coalesced int64   `json:"coalesced"`
	CacheHits int64   `json:"cache_hits"`
	HitRate   float64 `json:"hit_rate"`
	// ProgramHits counts responses a shard served from its program
	// tier (full-result misses that skipped the compiler);
	// SkeletonHits counts responses whose shard compile replayed a
	// cached formation skeleton (misses that still skipped the greedy
	// search); SkeletonFallbacks sums the functions within those
	// replays that fell back to greedy formation.
	ProgramHits       int64 `json:"program_hits"`
	SkeletonHits      int64 `json:"skeleton_hits"`
	SkeletonFallbacks int64 `json:"skeleton_fallbacks"`
	// Hedges counts budget-expiry hedges, HedgeWins those won by the
	// hedged try, Failovers immediate retries after transport errors.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	Failovers int64 `json:"failovers"`
	// ShedFailovers counts tries launched past a shedding shard;
	// AllShardsShedding counts requests where every reachable shard
	// shed and the max upstream Retry-After was relayed.
	ShedFailovers     int64 `json:"shed_failovers"`
	AllShardsShedding int64 `json:"all_shards_shedding"`
	// SuspectDeprioritized counts requests rerouted so a healthy
	// shard overtook a suspected one. ViewApplies counts
	// membership-driven shard-set rebuilds.
	SuspectDeprioritized int64 `json:"suspect_deprioritized"`
	ViewApplies          int64 `json:"view_applies,omitempty"`

	Classes map[server.ErrClass]int64 `json:"classes"`
	Shards  []ShardStatus             `json:"shards"`
	// Membership is the front's observer-side failure detector
	// snapshot, when one is attached.
	Membership *cluster.Status `json:"membership,omitempty"`
}

// StatusSnapshot assembles the current Status.
func (f *Front) StatusSnapshot() Status {
	f.mu.RLock()
	set := f.set
	draining := f.draining
	node := f.node
	f.mu.RUnlock()

	st := Status{
		Build:                buildinfo.Collect("hbfront"),
		UptimeSeconds:        time.Since(f.start).Seconds(),
		Draining:             draining,
		Requests:             f.requests.Load(),
		Inflight:             f.inflightN.Load(),
		Coalesced:            f.flights.Stats().Coalesced,
		CacheHits:            f.cacheHits.Load(),
		ProgramHits:          f.progHits.Load(),
		SkeletonHits:         f.skelHits.Load(),
		SkeletonFallbacks:    f.skelFallbacks.Load(),
		Hedges:               f.hedges.Load(),
		HedgeWins:            f.hedgeWins.Load(),
		Failovers:            f.failovers.Load(),
		ShedFailovers:        f.shedNexts.Load(),
		AllShardsShedding:    f.allShed.Load(),
		SuspectDeprioritized: f.suspectDepri.Load(),
		ViewApplies:          f.viewApplies.Load(),
		Classes:              map[server.ErrClass]int64{},
	}
	if node != nil {
		ms := node.Status()
		st.Membership = &ms
	}
	if st.Requests > 0 {
		st.HitRate = float64(st.CacheHits) / float64(st.Requests)
	}
	for c, n := range f.counts {
		if v := n.Load(); v > 0 {
			st.Classes[c] = v
		}
	}
	for _, u := range set.urls {
		s := set.shards[u]
		p50, _ := s.lat.Quantile(0.50)
		p95, _ := s.lat.Quantile(0.95)
		st.Shards = append(st.Shards, ShardStatus{
			URL:           s.url,
			Requests:      s.requests.Load(),
			Errors:        s.errors.Load(),
			P50MS:         float64(p50) / 1e6,
			P95MS:         float64(p95) / 1e6,
			HedgeBudgetMS: float64(s.hedgeBudget(f.cfg).Nanoseconds()) / 1e6,
			State:         set.state(u),
		})
	}
	return st
}

// Handler mounts the front tier's HTTP surface:
//
//	POST /v1/jobs    submit (same schema as hbserved)
//	GET  /healthz    liveness
//	GET  /readyz     admission (503 while draining)
//	GET  /statusz    Status JSON
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", f.handleJobs)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f.StatusSnapshot())
	})
	return mux
}
