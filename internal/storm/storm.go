// Package storm is the cluster fault-injection driver behind
// cmd/hbstorm: it boots an in-process N-shard compile farm (real
// servers, real engines, real peer artifact tiers — only the wire is
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
//   - the cluster reconverges once faults clear: a final pass over
//     every key is all cache hits with canonical payloads, so a shard
//     restarted empty has refilled by reading through its peers.
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
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos/netchaos"
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
	// Shards is the farm size (default 3).
	Shards int
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
	// clean phase, shard 0 dies abruptly and the storm phase requires
	// zero lost responses — every request must be served ok by the
	// survivors, from the copies the warm phase wrote back or by
	// recompiling.
	Kill bool
	// Churn exercises a shard restart under traffic: one third into
	// the burst shard 0 is killed abruptly (kill -9 semantics: its
	// listener vanishes at once), two thirds in a replacement with an
	// empty store starts at the victim's address. Every burst response
	// must be ok-class with zero losses, and the final pass must be
	// all cache hits again. Plan may carry mild faults (e.g.
	// latency-only) to make seeds meaningful; Profile is ignored in
	// churn mode.
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
		// Churn paces its kill and restart off the uniform request
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
	Seed    int64  `json:"seed"`
	Plan    string `json:"plan"`
	Shards  int    `json:"shards"`
	Kill    bool   `json:"kill,omitempty"`
	Churn   bool   `json:"churn,omitempty"`
	Profile string `json:"profile,omitempty"`
	// KilledShard is the URL of the shard the kill (or churn) took
	// down; under churn its replacement listens there too.
	KilledShard string `json:"killed_shard,omitempty"`

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
	srv      *server.Server
	hs       *httptest.Server
	dead     bool
}

// newNode makes an unstarted shard with an empty store on ln, so that
// its address is known before its server is built (the peer lists and
// the fault names are keyed on it).
func newNode(ln net.Listener) *node {
	return &node{
		local: store.NewMem(),
		hs:    &httptest.Server{Listener: ln, Config: &http.Server{}},
		url:   "http://" + ln.Addr().String(),
	}
}

// kill is the in-process kill -9: listener and in-flight connections
// gone at once, no drain, no goodbye.
func (n *node) kill() {
	n.dead = true
	n.hs.CloseClientConnections()
	n.hs.Close()
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
		Seed:    cfg.Plan.Seed,
		Plan:    cfg.Plan.Name(),
		Shards:  cfg.Shards,
		Kill:    cfg.Kill,
		Churn:   cfg.Churn,
		Profile: string(cfg.Profile),
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
	// Listeners first (the static peer lists and the fault names are
	// keyed on their addresses), then the stack per shard: local store
	// → peer tier over the other shards → engine → server.
	// The shards listen on ephemeral ports, so every injector hashes
	// them by name (storm-i, the shard ID), and one seed draws one
	// fault schedule on every run up to timing.
	nodes := make([]*node, cfg.Shards)
	urls := make([]string, cfg.Shards)
	names := &netchaos.Names{}
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("storm: shard %d: %w", i, err)
		}
		nodes[i] = newNode(ln)
		urls[i] = nodes[i].url
		names.Set(urls[i], shardName(i))
	}
	boot := func(idx int, n *node) error {
		var peers []string
		for j, u := range urls {
			if j != idx {
				peers = append(peers, u)
			}
		}
		n.injector = netchaos.New(cfg.Plan, shardName(idx))
		n.injector.SetNames(names)
		peer := store.NewPeer("peers", engine.KeySchema, peers,
			&http.Client{Transport: n.injector.Transport(nil)}, 750*time.Millisecond)
		backing := store.NewTiered(n.injector.Store(n.local), peer)
		eng := engine.New(engine.Config{Workers: 4, Cache: engine.NewStoreCache(backing)})
		inj := n.injector
		srv, err := server.New(server.Config{
			Engine:         eng,
			Workers:        4,
			QueueDepth:     64,
			ShardID:        shardName(idx),
			ArtifactStore:  n.local,
			InjectedFaults: func() any { return inj.Stats() },
			DefaultTimeout: cfg.RequestTimeout,
			MaxTimeout:     2 * cfg.RequestTimeout,
		})
		if err != nil {
			return err
		}
		n.srv = srv
		n.hs.Config.Handler = srv.Handler()
		n.hs.Start()
		return nil
	}
	injectors := make([]*netchaos.Injector, 0, cfg.Shards+2)
	for i, n := range nodes {
		if err := boot(i, n); err != nil {
			return nil, fmt.Errorf("storm: shard %d: %w", i, err)
		}
		injectors = append(injectors, n.injector)
	}
	defer func() {
		for _, n := range nodes {
			if !n.dead {
				n.srv.Drain()
				n.hs.Close()
			}
		}
	}()

	// --- Front tier ----------------------------------------------------
	// The front routes over the same static shard list: a request
	// whose shard is down fails over down the rendezvous order.
	frontInj := netchaos.New(cfg.Plan, "front")
	frontInj.SetNames(names)
	injectors = append(injectors, frontInj)
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
	fs := httptest.NewServer(f.Handler())
	defer func() {
		f.Drain()
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

	// --- Phase B: the storm --------------------------------------------
	rep.StormClasses = map[string]int{}
	killAt, restartAt := cfg.Requests/3, 2*cfg.Requests/3
	switch {
	case cfg.Kill:
		logf("phase B: killing shard 0 (%s), %d requests through survivors", nodes[0].url, cfg.Requests)
		rep.KilledShard = nodes[0].url
		nodes[0].kill()
	case cfg.Churn:
		if cfg.Plan.Active() {
			logf("phase B: churn under %s — kill %s at request %d, restart it empty at %d, %d requests",
				cfg.Plan.Name(), nodes[0].url, killAt, restartAt, cfg.Requests)
			for _, in := range injectors {
				in.Arm()
			}
		} else {
			logf("phase B: churn — kill %s at request %d, restart it empty at %d, %d requests",
				nodes[0].url, killAt, restartAt, cfg.Requests)
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
			if cfg.Churn && i == restartAt {
				// The replacement takes the victim's address and shard
				// ID with an empty store: every static peer list and
				// the front's ranking name it again, and it refills
				// by reading through its peers. Should another socket
				// have taken
				// the freed ephemeral port, the run ends as a harness
				// error, not a violation.
				ln, err := net.Listen("tcp", strings.TrimPrefix(nodes[0].url, "http://"))
				if err != nil {
					return nil, fmt.Errorf("storm: churn restart: %w", err)
				}
				nn := newNode(ln)
				if err := boot(0, nn); err != nil {
					return nil, fmt.Errorf("storm: churn restart: %w", err)
				}
				if cfg.Plan.Active() {
					nn.injector.Arm()
				}
				injectors = append(injectors, nn.injector)
				nodes[0] = nn
				logf("churn: restarted %s with an empty store", nn.url)
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

	// --- Phase C: reconverge -------------------------------------------
	logf("phase C: reconvergence check")
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
