// Package storm is the cluster fault-injection driver behind
// cmd/hbstorm: it boots an in-process N-shard compile farm (real
// servers, real engines, real artifact replication — only the wire is
// loopback), runs seeded traffic through a real front tier while a
// netchaos schedule mauls the cluster, and asserts the serving
// invariants that no unit test can state:
//
//   - every issued request gets exactly one terminal response, with a
//     valid error class, within its deadline plus slack — coalescing
//     never loses a waiter, drain never abandons one;
//   - no hash-invalid artifact is ever served: a request that reports
//     ok must carry exactly the metrics the clean run recorded for
//     its key, whatever the schedule did to envelopes in flight;
//   - the cluster reconverges once faults clear: anti-entropy restores
//     the replication factor and a final pass over every key is all
//     cache hits with canonical payloads.
//
// Faults are deterministic per seed (see internal/chaos/netchaos), so
// a red run reproduces from its report alone.
package storm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos/netchaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/front"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads/corpus"
)

// stormSrc is the job template: Args[0] parameterizes the loop bound,
// so every distinct argument is a distinct cache key with distinct
// canonical metrics.
const stormSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + i * i; }
  return s;
}`

// Config parameterizes one storm run.
type Config struct {
	// Shards is the farm size (default 3); Replicas is the artifact
	// replication factor R pushed by writes, read-repair, and the
	// sweeper (default 2, clamped to Shards-1).
	Shards   int
	Replicas int
	// Plan is the fault schedule; Plan.Seed also seeds the traffic
	// mix. A zero plan still exercises the clean path.
	Plan netchaos.Plan
	// Keys is the number of distinct jobs (default 6); Requests is the
	// traffic volume during the fault window (default 48); Workers is
	// client concurrency (default 8).
	Keys     int
	Requests int
	Workers  int
	// Kill replaces the fault window with a shard kill: after the
	// clean phase replicates artifacts, shard 0 dies abruptly and the
	// storm phase requires zero lost responses — every request must be
	// served ok from the survivors' replicas.
	Kill bool
	// Churn exercises membership under node turnover: one third into
	// the burst shard 0 is killed abruptly (kill -9 semantics: its
	// listener, gossip participant, and sweeper all vanish at once),
	// two thirds in a fresh shard boots and joins through a surviving
	// seed. Every burst response must be ok-class with zero losses,
	// the detector must converge (victim dead, newcomer alive, in
	// every survivor's view and the front's), and after anti-entropy
	// every key must sit at exactly R live copies again. Plan may
	// carry mild faults (e.g. latency-only) to make seeds meaningful;
	// Profile is ignored in churn mode.
	Churn bool
	// Profile, when set, shapes phase-B traffic with the same seeded
	// arrival schedules hbload replays (see internal/load) instead of
	// the uniform round-robin blast: each arrival's corpus index folds
	// onto the key space and the schedule's timestamps pace the
	// offered stream, compressed into ProfileSpan. The schedule (and
	// the corpus behind it) is seeded by Plan.Seed, so traffic shape
	// and fault schedule replay together from one number.
	Profile load.Profile
	// ProfileSpan is the wall clock the profile schedule is compressed
	// into (default 2s; only meaningful with Profile).
	ProfileSpan time.Duration
	// RequestTimeout is the per-request deadline (default 8s); faults
	// must resolve to a terminal class inside it.
	RequestTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.Shards-1 {
		c.Replicas = c.Shards - 1
	}
	if c.Keys <= 0 {
		c.Keys = 6
	}
	if c.Requests <= 0 {
		c.Requests = 48
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 8 * time.Second
	}
	if c.ProfileSpan <= 0 {
		c.ProfileSpan = 2 * time.Second
	}
	if c.Churn {
		// Churn paces its kill and join off the uniform request
		// stream; profile shaping does not compose with it.
		c.Profile = ""
	}
	return c
}

// Violation is one broken invariant, with enough detail to reproduce.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Report is the structured outcome of one run.
type Report struct {
	Seed     int64  `json:"seed"`
	Plan     string `json:"plan"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	Kill     bool   `json:"kill,omitempty"`
	Churn    bool   `json:"churn,omitempty"`
	Profile  string `json:"profile,omitempty"`
	// KilledShard/JoinedShard record the churn (or kill) cast;
	// MembershipConverged reports whether every live view agreed on
	// the final membership within the convergence deadline.
	KilledShard         string `json:"killed_shard,omitempty"`
	JoinedShard         string `json:"joined_shard,omitempty"`
	MembershipConverged bool   `json:"membership_converged,omitempty"`

	// Issued counts requests sent across all phases; Lost counts
	// requests that never produced a terminal response inside the
	// deadline plus slack (always a violation).
	Issued int `json:"issued"`
	Lost   int `json:"lost"`
	// OKWarm/OKStorm/OKFinal count ok-class responses per phase;
	// StormClasses breaks the fault-window responses down by class.
	OKWarm       int            `json:"ok_warm"`
	OKStorm      int            `json:"ok_storm"`
	OKFinal      int            `json:"ok_final"`
	StormClasses map[string]int `json:"storm_classes,omitempty"`
	// Faults aggregates injected faults across every node's injector.
	Faults netchaos.Stats `json:"faults"`
	// Sweeps snapshots each surviving shard's anti-entropy stats after
	// the heal phase.
	Sweeps []store.SweepStats `json:"sweeps,omitempty"`

	Violations []Violation `json:"violations,omitempty"`
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

func (r *Report) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: invariant,
		Detail:    fmt.Sprintf(format, args...),
	})
}

// shardName is shard idx's shard ID and its name in fault decisions.
func shardName(idx int) string { return fmt.Sprintf("storm-%d", idx) }

// node is one in-process shard.
type node struct {
	url      string
	local    *store.Mem
	injector *netchaos.Injector
	sweeper  *store.Sweeper
	srv      *server.Server
	hs       *httptest.Server
	cl       *cluster.Node
	unwatch  func()
	dead     bool
}

// kill is the in-process kill -9: listener, in-flight connections,
// gossip participant, everything gone at once, no drain, no goodbye.
// A real SIGKILL takes the sweeper and the refutation loop with it —
// stopping the cluster node here is what lets the suspicion timeout
// actually confirm the death instead of being refuted forever.
func (n *node) kill() {
	n.dead = true
	n.hs.CloseClientConnections()
	n.hs.Close()
	if n.cl != nil {
		n.cl.Stop()
	}
	if n.unwatch != nil {
		n.unwatch()
	}
}

// Gossip timing for the in-process farm: fast enough that suspicion
// confirms within a test budget, slow enough that injected latency
// (tens of ms) does not flap healthy members.
const (
	stormProbeInterval = 150 * time.Millisecond
	stormProbeTimeout  = 100 * time.Millisecond
	stormSuspicion     = time.Second
	stormJoinWarmup    = 400 * time.Millisecond
	stormConverge      = 15 * time.Second
)

// handlerBox/hswap mirror the front cluster tests: a swappable
// handler so servers can be built after their listener address is
// known (injectors hash node addresses).
type handlerBox struct{ h http.Handler }

type hswap struct{ v atomic.Value }

func (h *hswap) store(hh http.Handler) { h.v.Store(handlerBox{hh}) }
func (h *hswap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// canonical is the clean-phase ground truth for one key.
type canonical struct {
	result int64
	cycles int64
}

// Run executes one storm and returns its report. The error is
// reserved for harness failures (a server that would not boot);
// invariant breaks land in the report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Seed:     cfg.Plan.Seed,
		Plan:     cfg.Plan.Name(),
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
		Kill:     cfg.Kill,
		Profile:  string(cfg.Profile),
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Profile traffic is resolved before the farm boots so a bad
	// profile fails fast. The corpus and schedule both derive from
	// Plan.Seed: one number replays traffic shape and fault schedule.
	var arrivals []load.Arrival
	if cfg.Profile != "" {
		crp, cerr := corpus.Build(corpus.Config{Seed: cfg.Plan.Seed, N: 32})
		if cerr != nil {
			return nil, fmt.Errorf("storm: profile corpus: %w", cerr)
		}
		var aerr error
		arrivals, aerr = load.Schedule(load.ScheduleConfig{
			Profile:  cfg.Profile,
			Seed:     cfg.Plan.Seed,
			Requests: cfg.Requests,
			Duration: cfg.ProfileSpan,
			Timeout:  cfg.RequestTimeout,
			Corpus:   crp,
		})
		if aerr != nil {
			return nil, fmt.Errorf("storm: profile schedule: %w", aerr)
		}
	}

	// --- Boot the farm -------------------------------------------------
	// Listener first (addresses seed the injectors and the gossip),
	// then the stack per shard: local store → membership-driven peer
	// tier → engine → sweeper → gossip node → server. Every ring
	// consumer re-derives placement from the node's live View; the
	// seed list is only the bootstrap fallback. The shards listen on
	// ephemeral ports, so every injector hashes them by name (storm-i,
	// the shard ID), and one seed draws one fault schedule on every run
	// up to timing.
	nodes := make([]*node, cfg.Shards)
	urls := make([]string, cfg.Shards)
	names := &netchaos.Names{}
	for i := range nodes {
		sw := &hswap{}
		sw.store(http.NotFoundHandler())
		hs := httptest.NewUnstartedServer(sw)
		nodes[i] = &node{
			local: store.NewMem(),
			hs:    hs,
			url:   "http://" + hs.Listener.Addr().String(),
		}
		urls[i] = nodes[i].url
		names.Set(urls[i], shardName(i))
	}
	boot := func(idx int, seeds []string, warmup time.Duration, n *node) error {
		n.injector = netchaos.New(cfg.Plan, shardName(idx))
		n.injector.SetNames(names)
		peer := store.NewPeerWith("peers", engine.KeySchema, seeds,
			&http.Client{Transport: n.injector.Transport(nil)},
			store.PeerOpts{
				Replicas:   cfg.Replicas,
				OpTimeout:  750 * time.Millisecond,
				ReadRepair: true,
			})
		backing := store.NewTiered(n.injector.Store(n.local), peer)
		eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewStoreCache(backing)})
		n.sweeper = store.NewSweeper(n.local, n.local, peer)
		cl, err := cluster.New(cluster.Config{
			Self:             n.url,
			Seeds:            seeds,
			ProbeInterval:    stormProbeInterval,
			ProbeTimeout:     stormProbeTimeout,
			SuspicionTimeout: stormSuspicion,
			JoinWarmup:       warmup,
			Client:           &http.Client{Transport: n.injector.Transport(nil)},
			Seed:             cfg.Plan.Seed*31 + int64(idx),
		})
		if err != nil {
			return err
		}
		n.cl = cl
		self := n.url
		n.unwatch = cl.OnChange(func(v cluster.View) {
			peer.SetMembership(cluster.Exclude(v.Serving(), self), cluster.Exclude(v.Owners(), self))
		})
		n.sweeper.SetView(func() store.SweepView {
			v := cl.View()
			return store.SweepView{Targets: cluster.Exclude(v.Placement(), self), Dead: v.Dead()}
		})
		inj := n.injector
		srv, err := server.New(server.Config{
			Engine:         eng,
			Workers:        4,
			QueueDepth:     64,
			ShardID:        shardName(idx),
			ArtifactStore:  n.local,
			Sweeper:        n.sweeper,
			Cluster:        cl,
			InjectedFaults: func() any { return inj.Stats() },
			DefaultTimeout: cfg.RequestTimeout,
			MaxTimeout:     2 * cfg.RequestTimeout,
		})
		if err != nil {
			return err
		}
		n.srv = srv
		n.hs.Config.Handler.(*hswap).store(srv.Handler())
		n.hs.Start()
		cl.Start()
		return nil
	}
	injectors := make([]*netchaos.Injector, 0, cfg.Shards+2)
	for i, n := range nodes {
		var seeds []string
		for j, u := range urls {
			if j != i {
				seeds = append(seeds, u)
			}
		}
		if err := boot(i, seeds, 0, n); err != nil {
			return nil, fmt.Errorf("storm: shard %d: %w", i, err)
		}
		injectors = append(injectors, n.injector)
	}
	defer func() {
		for _, n := range nodes {
			if !n.dead {
				n.srv.Drain()
				n.cl.Stop()
				if n.unwatch != nil {
					n.unwatch()
				}
				n.hs.Close()
			}
		}
	}()

	// --- Front tier ----------------------------------------------------
	// The front runs a membership observer: it probes the ring and
	// maintains a view like a member, but never announces itself.
	// Routing, hedging, and shed-walking re-derive from the view on
	// every change (dead shards dropped, suspects deprioritized).
	frontInj := netchaos.New(cfg.Plan, "front")
	frontInj.SetNames(names)
	injectors = append(injectors, frontInj)
	obs, err := cluster.New(cluster.Config{
		Observer:         true,
		Seeds:            urls,
		ProbeInterval:    stormProbeInterval,
		ProbeTimeout:     stormProbeTimeout,
		SuspicionTimeout: stormSuspicion,
		Client:           &http.Client{Transport: frontInj.Transport(nil)},
		Seed:             cfg.Plan.Seed*31 + 997,
	})
	if err != nil {
		return nil, fmt.Errorf("storm: front observer: %w", err)
	}
	f, err := front.New(front.Config{
		Shards:         urls,
		Client:         &http.Client{Transport: frontInj.Transport(nil)},
		HedgeAfter:     50 * time.Millisecond,
		DefaultTimeout: cfg.RequestTimeout,
		MaxTimeout:     2 * cfg.RequestTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("storm: front: %w", err)
	}
	unwatchFront := f.WatchMembership(obs)
	obs.Start()
	fs := httptest.NewServer(f.Handler())
	defer func() {
		f.Drain()
		obs.Stop()
		unwatchFront()
		fs.Close()
	}()
	client := fs.Client()

	// --- Traffic -------------------------------------------------------
	reqFor := func(k int) server.Request {
		return server.Request{
			Source:    stormSrc,
			Args:      []int64{int64(4 + k)},
			Sim:       "timing",
			TimeoutMS: cfg.RequestTimeout.Milliseconds(),
		}
	}
	// issue sends one request and classifies the outcome. A transport
	// error or timeout with no HTTP response at all counts as lost —
	// the front's one-terminal-response invariant broke (its own
	// deadline handling should have synthesized a class).
	// Concurrency-safe: issue never touches the report; callers count.
	var issued atomic.Int64
	issue := func(ctx context.Context, k int) (server.Response, error) {
		issued.Add(1)
		body, _ := json.Marshal(reqFor(k))
		rctx, cancel := context.WithTimeout(ctx, cfg.RequestTimeout+5*time.Second)
		defer cancel()
		hreq, _ := http.NewRequestWithContext(rctx, http.MethodPost, fs.URL+"/v1/jobs", bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := client.Do(hreq)
		if err != nil {
			return server.Response{}, fmt.Errorf("transport: %w", err)
		}
		raw, rerr := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
		hresp.Body.Close()
		if rerr != nil {
			return server.Response{}, fmt.Errorf("body read (status %d): %w", hresp.StatusCode, rerr)
		}
		var resp server.Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			return server.Response{}, fmt.Errorf("non-JSON terminal response (status %d): %.120q", hresp.StatusCode, raw)
		}
		return resp, nil
	}

	// --- Phase A: clean warmup -----------------------------------------
	logf("phase A: clean warmup, %d keys", cfg.Keys)
	truth := make(map[int]canonical, cfg.Keys)
	for k := 0; k < cfg.Keys; k++ {
		resp, ierr := issue(ctx, k)
		if ierr != nil {
			rep.Lost++
			rep.violate("terminal-response", "warmup key %d: %v", k, ierr)
			continue
		}
		if resp.Class != server.ClassOK || resp.Metrics == nil {
			rep.violate("clean-phase-ok", "warmup key %d: class %s (%s)", k, resp.Class, resp.Error)
			continue
		}
		rep.OKWarm++
		truth[k] = canonical{result: resp.Metrics.Result, cycles: resp.Metrics.Cycles}
	}
	if len(truth) != cfg.Keys {
		// Without ground truth the payload oracle is vacuous; report
		// what broke and stop.
		return rep, nil
	}

	// checkPayload asserts the no-hash-invalid-artifact oracle for an
	// ok response.
	checkPayload := func(phase string, k int, resp server.Response) bool {
		c := truth[k]
		if resp.Metrics == nil {
			rep.violate("payload-integrity", "%s key %d: ok with no metrics", phase, k)
			return false
		}
		if resp.Metrics.Result != c.result || resp.Metrics.Cycles != c.cycles {
			rep.violate("payload-integrity",
				"%s key %d: served result=%d cycles=%d, canonical result=%d cycles=%d",
				phase, k, resp.Metrics.Result, resp.Metrics.Cycles, c.result, c.cycles)
			return false
		}
		return true
	}

	// --- Replicate before the storm ------------------------------------
	// One sweep round guarantees every warm key sits at full
	// replication before faults (or the kill) start.
	for _, n := range nodes {
		if _, err := n.sweeper.SweepOnce(ctx); err != nil {
			logf("pre-storm sweep: %v", err)
		}
	}

	// --- Phase B: the storm --------------------------------------------
	rep.StormClasses = map[string]int{}
	killAt, joinAt := cfg.Requests/3, 2*cfg.Requests/3
	switch {
	case cfg.Kill:
		logf("phase B: killing shard 0 (%s), %d requests through survivors", nodes[0].url, cfg.Requests)
		rep.KilledShard = nodes[0].url
		nodes[0].kill()
	case cfg.Churn:
		if cfg.Plan.Active() {
			logf("phase B: churn under %s — kill %s at request %d, join a fresh shard at %d, %d requests",
				cfg.Plan.Name(), nodes[0].url, killAt, joinAt, cfg.Requests)
			for _, in := range injectors {
				in.Arm()
			}
		} else {
			logf("phase B: churn — kill %s at request %d, join a fresh shard at %d, %d requests",
				nodes[0].url, killAt, joinAt, cfg.Requests)
		}
	default:
		if cfg.Profile != "" {
			logf("phase B: arming %s, %d requests shaped by %s profile over %s",
				cfg.Plan.Name(), cfg.Requests, cfg.Profile, cfg.ProfileSpan)
		} else {
			logf("phase B: arming %s, %d requests", cfg.Plan.Name(), cfg.Requests)
		}
		for _, in := range injectors {
			in.Arm()
		}
	}
	// Workers only issue; the main goroutine owns the report, so
	// invariant accounting needs no locks.
	type outcome struct {
		k    int
		resp server.Response
		err  error
	}
	var wg sync.WaitGroup
	work := make(chan int)
	results := make(chan outcome, cfg.Requests)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				resp, err := issue(ctx, k)
				results <- outcome{k: k, resp: resp, err: err}
			}
		}()
	}
	if arrivals != nil {
		// Profile-shaped offer: pace the stream on the schedule's
		// timestamps (open-loop up to Workers in flight) and fold each
		// arrival's corpus index onto the key space.
		start := time.Now()
		for _, a := range arrivals {
			if d := time.Duration(a.AtUS)*time.Microsecond - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			work <- a.ProgramIdx % cfg.Keys
		}
	} else {
		for i := 0; i < cfg.Requests; i++ {
			if cfg.Churn && i == killAt {
				logf("churn: killing %s mid-burst", nodes[0].url)
				rep.KilledShard = nodes[0].url
				nodes[0].kill()
			}
			if cfg.Churn && i == joinAt {
				sw := &hswap{}
				sw.store(http.NotFoundHandler())
				hs := httptest.NewUnstartedServer(sw)
				nn := &node{
					local: store.NewMem(),
					hs:    hs,
					url:   "http://" + hs.Listener.Addr().String(),
				}
				names.Set(nn.url, shardName(len(nodes)))
				// The newcomer joins through a surviving seed, starts
				// in the joining state, and self-promotes to alive
				// after its warmup — the window in which the existing
				// sweepers push replicas at it without it counting
				// toward anyone's replication factor.
				if err := boot(len(nodes), append([]string{}, urls[1:]...), stormJoinWarmup, nn); err != nil {
					return nil, fmt.Errorf("storm: churn join: %w", err)
				}
				if cfg.Plan.Active() {
					nn.injector.Arm()
				}
				injectors = append(injectors, nn.injector)
				nodes = append(nodes, nn)
				rep.JoinedShard = nn.url
				logf("churn: joined fresh shard %s via %s", nn.url, urls[1])
			}
			work <- i % cfg.Keys
		}
	}
	close(work)
	wg.Wait()
	close(results)
	for out := range results {
		if out.err != nil {
			rep.Lost++
			rep.violate("terminal-response", "storm key %d: %v", out.k, out.err)
			continue
		}
		resp := out.resp
		if !resp.Class.Valid() {
			rep.violate("valid-class", "storm key %d: invalid class %q", out.k, resp.Class)
		}
		rep.StormClasses[string(resp.Class)]++
		if resp.Class == server.ClassOK {
			rep.OKStorm++
			checkPayload("storm", out.k, resp)
		} else if cfg.Kill {
			rep.violate("kill-zero-loss", "key %d after shard kill: class %s (%s)", out.k, resp.Class, resp.Error)
		} else if cfg.Churn {
			rep.violate("churn-zero-loss", "key %d during churn: class %s (%s)", out.k, resp.Class, resp.Error)
		}
	}
	if !cfg.Kill {
		for _, in := range injectors {
			in.Disarm()
		}
	}

	// --- Membership convergence ----------------------------------------
	// Before the heal phase's replication asserts can mean anything,
	// every live view (each shard's and the front observer's) must
	// agree on the final membership: under kill and churn the victim
	// confirmed dead and the newcomer alive everywhere; after a fault
	// storm every falsely suspected or dead member refuted back to
	// alive. Bounded wait — non-convergence is itself a violation.
	if cfg.Kill || cfg.Churn || cfg.Plan.Active() {
		want := func(v cluster.View) bool {
			for _, n := range nodes {
				m, ok := v.Member(n.url)
				if !ok {
					return false
				}
				if n.dead && m.State != cluster.StateDead {
					return false
				}
				if !n.dead && m.State != cluster.StateAlive {
					return false
				}
			}
			return true
		}
		convDeadline := time.Now().Add(stormConverge)
		rep.MembershipConverged = true
		checkView := func(name string, cl *cluster.Node) {
			remain := time.Until(convDeadline)
			if remain < time.Second {
				remain = time.Second
			}
			if v, ok := cl.WaitConverged(remain, want); !ok {
				rep.MembershipConverged = false
				rep.violate("membership-convergence", "%s view stuck at %+v", name, v.Members)
			}
		}
		for i, n := range nodes {
			if !n.dead {
				checkView(fmt.Sprintf("shard %d", i), n.cl)
			}
		}
		checkView("front", obs)
		logf("membership converged=%v", rep.MembershipConverged)
	} else {
		rep.MembershipConverged = true
	}

	// --- Phase C: heal and reconverge ----------------------------------
	logf("phase C: anti-entropy sweep and reconvergence check")
	for _, n := range nodes {
		if n.dead {
			continue
		}
		if _, err := n.sweeper.SweepOnce(ctx); err != nil {
			logf("heal sweep: %v", err)
		}
		rep.Sweeps = append(rep.Sweeps, n.sweeper.Stats())
	}
	if !cfg.Kill {
		// With every node alive, every key must sit at exactly R
		// confirmed copies after one full sweep round.
		for i, n := range nodes {
			if n.dead {
				continue
			}
			st := n.sweeper.Stats()
			for bucket, cnt := range st.Replication {
				if bucket != fmt.Sprintf("%d", cfg.Replicas) {
					rep.violate("replication-factor",
						"shard %d: %d keys at %s copies, want all at %d (hist %v)",
						i, cnt, bucket, cfg.Replicas, st.Replication)
				}
			}
		}
	}
	deadline := time.Now().Add(2 * cfg.RequestTimeout)
	for k := 0; k < cfg.Keys; k++ {
		var resp server.Response
		var ierr error
		for {
			resp, ierr = issue(ctx, k)
			if ierr == nil && resp.Class == server.ClassOK {
				break
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if ierr != nil {
			rep.Lost++
			rep.violate("terminal-response", "final key %d: %v", k, ierr)
			continue
		}
		if resp.Class != server.ClassOK {
			rep.violate("reconvergence", "final key %d: class %s (%s) after faults cleared", k, resp.Class, resp.Error)
			continue
		}
		if !resp.CacheHit && !resp.Coalesced {
			rep.violate("reconvergence", "final key %d: recompiled (cache_hit=false) — hit rate did not reconverge", k)
		}
		if checkPayload("final", k, resp) {
			rep.OKFinal++
		}
	}

	for _, in := range injectors {
		st := in.Stats()
		rep.Faults.Latency += st.Latency
		rep.Faults.Drops += st.Drops
		rep.Faults.Hangs += st.Hangs
		rep.Faults.Partitions += st.Partitions
		rep.Faults.Err5xx += st.Err5xx
		rep.Faults.Truncates += st.Truncates
		rep.Faults.BitFlips += st.BitFlips
		rep.Faults.DiskWrite += st.DiskWrite
		rep.Faults.DiskRead += st.DiskRead
	}
	rep.Issued = int(issued.Load())
	logf("done: issued=%d lost=%d ok(warm/storm/final)=%d/%d/%d faults=%d violations=%d",
		rep.Issued, rep.Lost, rep.OKWarm, rep.OKStorm, rep.OKFinal,
		rep.Faults.Total(), len(rep.Violations))
	return rep, nil
}
