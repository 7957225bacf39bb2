// Package front is the cluster's front tier: a thin, stateless-ish
// router that turns a fleet of hbserved shards into one service.
//
// Three mechanisms do the work:
//
//   - Rendezvous routing: every request's content-addressed cache key
//     (the same key the shard's engine will compute) ranks the shards
//     by highest-random-weight hashing. The top-ranked shard owns the
//     key, so identical requests always land where the artifact
//     already is, and adding or removing one shard only remaps the
//     keys that ranked it first.
//
//   - Hedged retries: the primary gets a budget derived from its own
//     recent latency distribution (its p95, clamped); past the budget,
//     if the primary is still the only try, the same request is
//     issued once to the next-ranked shard and the first response
//     wins — the loser is canceled through its context. A shed or a
//     transport failure launches the next-ranked shard immediately,
//     down the whole rank order, and shard answers keep the server's
//     ErrClass taxonomy.
//
//   - Single-flight: identical concurrent requests coalesce on the
//     front by cache key and deadline before any shard is touched, so
//     a thundering herd of N identical requests crosses the network
//     once and costs exactly one compile cluster-wide. The flight runs
//     on memo.Flights, the table the shard's engine runs its program
//     flight on, with the same lifecycle: the last waiter to leave
//     cancels the upstream tries. The shard's engine coalesces too,
//     but only after each request has taken a queue slot and a worker:
//     without the front's flight a herd fills the primary's queue,
//     sheds, and hedges onto the secondary.
//
// The shard list is fixed when the front is built. A dead shard stays
// in every ranking: requests it owns fail over down the rank order on
// the transport error, and a shard restarted at its old address is
// routed to again on its next request.
package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config parameterizes a Front.
type Config struct {
	// Shards are the backend base URLs (required, >= 1).
	Shards []string
	// HedgeAfter is the floor (and cold-start value) of the hedge
	// budget; HedgeMax caps it. Defaults: 50ms, 2s.
	HedgeAfter time.Duration
	HedgeMax   time.Duration
	// DefaultTimeout/MaxTimeout mirror the server's request-deadline
	// policy (defaults 10s/60s). A flight itself is bounded by the
	// initiating request's clamped deadline.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Client issues backend requests (nil: a fresh http.Client; per-
	// try deadlines come from contexts, not a client timeout).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 50 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// flightKey identifies a coalescable request: the engine cache key
// (which hashes everything that determines the result) and the client
// deadline (excluded from the engine key but visible in behavior).
type flightKey struct {
	key       string
	timeoutMS int64
}

// upstream is one terminal backend outcome: either an HTTP response
// (whatever its class) or a transport-level error.
type upstream struct {
	status    int
	class     server.ErrClass
	body      []byte
	shard     string
	hedged    bool // served by the hedge/failover try, not the primary
	cacheHit  bool
	coalesced bool
	// programHit/skeletonHit/skeletonFallbacks relay the shard's
	// compile-tier outcome (program served without compiling; compile
	// served by skeleton replay; functions that fell back to greedy
	// within it).
	programHit        bool
	skeletonHit       bool
	skeletonFallbacks int64
	// retryAfterMS is the shard's backpressure advice on a shed
	// response; the front relays the max across shedding shards.
	retryAfterMS int64
	err          error
}

// Front is the router. Build with New, mount Handler, Drain on
// shutdown.
type Front struct {
	cfg    Config
	byName map[string]*workloads.Workload
	client *http.Client
	// set is the routing set, built once in New and never changed.
	set *shardSet

	// mu guards draining; admission holds it across the draining
	// check and the in-flight increment (same discipline as the
	// server's drain).
	mu       sync.RWMutex
	draining bool

	inflight  sync.WaitGroup
	inflightN atomic.Int64
	// flights coalesces identical concurrent requests.
	flights *memo.Flights[flightKey, upstream]

	start     time.Time
	requests  atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	failovers atomic.Int64
	// shedNexts counts tries launched because a shard shed (the front
	// walks the rendezvous order past backpressure); allShed counts
	// requests where every reachable shard shed — the cluster-wide
	// overload signal, relayed with the max upstream Retry-After.
	shedNexts atomic.Int64
	allShed   atomic.Int64
	cacheHits atomic.Int64 // responses served from a shard cache or coalesce
	// progHits counts responses the shard served from its program
	// tier; skelHits those whose compile was a skeleton replay on the
	// shard; skelFallbacks accumulates the per-response fallback
	// counts (cluster-visible compile-tier efficacy).
	progHits      atomic.Int64
	skelHits      atomic.Int64
	skelFallbacks atomic.Int64
	counts        map[server.ErrClass]*atomic.Int64

	drainOnce sync.Once
}

// New builds a front over the configured shard set.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	set := newShardSet(cfg.Shards)
	if len(set.urls) == 0 {
		return nil, fmt.Errorf("front: Config.Shards must name at least one shard URL")
	}
	f := &Front{
		cfg:     cfg,
		byName:  server.Catalog(),
		client:  cfg.Client,
		set:     set,
		flights: memo.NewFlights[flightKey, upstream](),
		start:   time.Now(),
		counts:  map[server.ErrClass]*atomic.Int64{},
	}
	for _, c := range server.Classes {
		f.counts[c] = &atomic.Int64{}
	}
	return f, nil
}

// Draining reports whether drain has begun.
func (f *Front) Draining() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.draining
}

// Drain stops admitting (new requests shed, readyz 503) and waits for
// every admitted request to receive its terminal response.
func (f *Front) Drain() error {
	f.drainOnce.Do(func() {
		f.mu.Lock()
		f.draining = true
		f.mu.Unlock()
		f.inflight.Wait()
	})
	return nil
}

// timeout clamps the request deadline to policy (same as the server).
func (f *Front) timeout(req server.Request) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = f.cfg.DefaultTimeout
	}
	if d > f.cfg.MaxTimeout {
		d = f.cfg.MaxTimeout
	}
	return d
}

// respond writes one terminal response and bumps the class counter.
func (f *Front) respond(w http.ResponseWriter, u upstream) {
	if !u.class.Valid() {
		u.class = server.ClassInternal
	}
	f.counts[u.class].Add(1)
	if u.cacheHit || u.coalesced {
		f.cacheHits.Add(1)
	}
	if u.programHit {
		f.progHits.Add(1)
	}
	if u.skeletonHit {
		f.skelHits.Add(1)
		f.skelFallbacks.Add(u.skeletonFallbacks)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hbserved-Class", string(u.class))
	if u.retryAfterMS > 0 {
		secs := (u.retryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	if u.shard != "" {
		w.Header().Set("X-Hbfront-Shard", u.shard)
	}
	if u.hedged {
		w.Header().Set("X-Hbfront-Hedged", "1")
	}
	if u.status == 0 {
		u.status = u.class.HTTPStatus()
	}
	w.WriteHeader(u.status)
	w.Write(u.body)
}

// synthesize builds a front-originated terminal outcome (sheds,
// routing failures, coalesced-wait timeouts) in the server's response
// schema so clients see one format no matter who answered.
func synthesize(class server.ErrClass, detail string, retryAfter time.Duration) upstream {
	resp := server.Response{Class: class, Error: detail}
	if retryAfter > 0 {
		resp.RetryAfterMS = retryAfter.Milliseconds()
	}
	body, _ := json.Marshal(resp)
	return upstream{status: class.HTTPStatus(), class: class, body: body, retryAfterMS: resp.RetryAfterMS}
}

// handleJobs is POST /v1/jobs: validate, coalesce, route, hedge,
// respond exactly once.
func (f *Front) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	f.requests.Add(1)
	req, body, err := server.DecodeRequest(w, r)
	if err != nil {
		f.respond(w, synthesize(server.ClassInvalidInput,
			fmt.Sprintf("front: invalid input: bad JSON: %v", err), 0))
		return
	}
	job, _, inv := server.BuildJob(f.byName, req)
	if inv != nil {
		f.respond(w, upstream{status: inv.Class.HTTPStatus(), class: inv.Class, body: mustJSON(*inv)})
		return
	}
	key, err := engine.Key(job)
	if err != nil {
		f.respond(w, synthesize(server.ClassInvalidInput,
			fmt.Sprintf("front: unroutable request: %v", err), 0))
		return
	}
	timeout := f.timeout(req)

	// Admission: the lock spans the draining check and the in-flight
	// increment, so Drain can never slip between them.
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		f.respond(w, synthesize(server.ClassShed, "front: shed: draining", time.Second))
		return
	}
	f.inflight.Add(1)
	f.inflightN.Add(1)
	f.mu.Unlock()
	defer func() {
		f.inflightN.Add(-1)
		f.inflight.Done()
	}()

	// The flight's own deadline matches the initiating request's,
	// anchored when it starts; a waiter that leaves early leaves the
	// flight to the others, and the last one out cancels it.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	u, joined, ok := f.flights.Do(ctx, flightKey{key: key, timeoutMS: req.TimeoutMS}, nil,
		func(fctx context.Context) upstream {
			tctx, stop := context.WithTimeout(fctx, timeout)
			defer stop()
			return f.hedgedDo(tctx, key, body)
		})
	if !ok {
		// This waiter's deadline (or client) ended first. Exactly one
		// response either way.
		f.respond(w, synthesize(server.ClassTimeout,
			"front: deadline expired waiting for the coalesced flight", 0))
		return
	}
	if joined {
		u.coalesced = true
	}
	f.respond(w, u)
}

// hedgedDo routes one request: primary by rendezvous rank, then the
// next shard in rank order on every shed or transport failure, so a
// request reaches every ranked shard before the front gives up.
// If the primary is still the only try when the latency budget passes,
// one hedge goes to the next shard. The first non-shed HTTP response
// wins and cancels the other tries.
func (f *Front) hedgedDo(ctx context.Context, key string, body []byte) upstream {
	order := store.Rank(key, f.set.urls)
	primary, next := f.set.shards[order[0]], 1

	tryCtx, cancelTries := context.WithCancel(ctx)
	defer cancelTries()
	// One slot per shard: each is tried at most once, so no try blocks
	// on its send after hedgedDo returns.
	resc := make(chan upstream, len(order))
	launch := func(s *shard, hedged bool) {
		go func() { resc <- f.tryShard(tryCtx, s, body, hedged) }()
	}
	launch(primary, false)
	outstanding := 1

	timer := time.NewTimer(primary.hedgeBudget(f.cfg))
	defer timer.Stop()

	// launchNext tries the next shard in rank order, counting the
	// launch under reason. Once any try beyond the primary is out, the
	// timer hedge stands down, so it never adds a try on top of a shed
	// walk or a failover.
	walked := false
	launchNext := func(reason *atomic.Int64) {
		if next < len(order) {
			reason.Add(1)
			outstanding++
			walked = true
			launch(f.set.shards[order[next]], true)
			next++
		}
	}

	// bestShed is the shed response carrying the longest Retry-After
	// seen so far. When every reachable shard sheds, it is relayed
	// verbatim: the client hears the most pessimistic shard's real
	// drain estimate, not a front-synthesized constant.
	var bestShed *upstream

	for {
		select {
		case u := <-resc:
			outstanding--
			if u.err == nil && u.class != server.ClassShed {
				if u.hedged {
					f.hedgeWins.Add(1)
				}
				return u
			}
			if u.err == nil {
				// Backpressure is per-shard, not per-cluster: walk to
				// the next-ranked shard before relaying a 429.
				if bestShed == nil || u.retryAfterMS > bestShed.retryAfterMS {
					c := u
					bestShed = &c
				}
				launchNext(&f.shedNexts)
			} else {
				launchNext(&f.failovers)
			}
			if outstanding > 0 {
				continue
			}
			if bestShed != nil {
				// Every try either shed or died; the shed's advice is
				// more useful to the client than "internal".
				f.allShed.Add(1)
				return *bestShed
			}
			return synthesize(server.ClassInternal,
				fmt.Sprintf("front: all shard attempts failed: %v", u.err), 0)
		case <-timer.C:
			if !walked {
				launchNext(&f.hedges)
			}
		case <-ctx.Done():
			return synthesize(server.ClassTimeout,
				"front: request deadline expired while routing", 0)
		}
	}
}

// probeBody is the slice of the shard response the front's gauges
// care about.
type probeBody struct {
	CacheHit          bool  `json:"cache_hit"`
	Coalesced         bool  `json:"coalesced"`
	RetryAfterMS      int64 `json:"retry_after_ms"`
	ProgramHit        bool  `json:"program_hit"`
	SkeletonHit       bool  `json:"skeleton_hit"`
	SkeletonFallbacks int64 `json:"skeleton_fallbacks"`
}

// tryShard issues one POST to one shard and classifies the result:
// any HTTP response is terminal (its class comes from the
// X-Hbserved-Class header), a transport failure is err. Latency
// bookkeeping happens here so every try — hedged or not — feeds the
// shard's hedge budget.
func (f *Front) tryShard(ctx context.Context, s *shard, body []byte, hedged bool) upstream {
	s.requests.Add(1)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		s.errors.Add(1)
		return upstream{shard: s.url, hedged: hedged, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		s.errors.Add(1)
		return upstream{shard: s.url, hedged: hedged, err: err}
	}
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	resp.Body.Close()
	if rerr != nil {
		s.errors.Add(1)
		return upstream{shard: s.url, hedged: hedged, err: rerr}
	}
	s.lat.Record(time.Since(start).Nanoseconds())

	class := server.ErrClass(resp.Header.Get("X-Hbserved-Class"))
	if !class.Valid() {
		// A reply without the taxonomy header is not an hbserved shard
		// answering properly — an interposed proxy or LB erroring on
		// the shard's behalf. Its body cannot be relayed (clients see
		// one schema no matter who answered) and it says the same
		// thing a connection error would: this shard is not serving.
		// Report it as a transport-level failure so the failover path
		// tries the next shard instead of terminating the request.
		s.errors.Add(1)
		return upstream{
			shard:  s.url,
			hedged: hedged,
			err:    fmt.Errorf("front: shard %s replied status %d without a class header", s.url, resp.StatusCode),
		}
	}
	var pb probeBody
	_ = json.Unmarshal(raw, &pb)
	return upstream{
		status:            resp.StatusCode,
		class:             class,
		body:              raw,
		shard:             s.url,
		hedged:            hedged,
		cacheHit:          pb.CacheHit,
		coalesced:         pb.Coalesced,
		retryAfterMS:      pb.RetryAfterMS,
		programHit:        pb.ProgramHit,
		skeletonHit:       pb.SkeletonHit,
		skeletonFallbacks: pb.SkeletonFallbacks,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"class":"internal","error":"front: encode failure"}`)
	}
	return b
}
