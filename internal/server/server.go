// Package server is the serving layer over the experiment engine: a
// long-running compile-and-simulate service with the full resilience
// stack the batch CLIs never needed — bounded admission with
// backpressure, per-request deadlines propagated end-to-end (front
// end → formation checkpoints → simulator block polls), load shedding
// on a full queue, queue age and heap watermarks, and graceful drain.
// Every outcome maps into one structured error class (ErrClass);
// /healthz, /readyz and /statusz expose liveness, admission state, and
// the full counter surface.
//
// The invariant the whole package is built around: every admitted
// request receives exactly one terminal response. Workers send
// exactly one response per task into a buffered channel, handlers
// read exactly one, and drain refuses to tear the queue down until
// the in-flight count reaches zero (hard-canceling cooperatively past
// the drain budget rather than abandoning work).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Config parameterizes a Server.
type Config struct {
	// Engine executes the jobs (required; New fails without it). The
	// engine's cache, chaos plan, tracer, and quarantine ledger are
	// shared across all requests.
	Engine *engine.Engine
	// Workers bounds concurrently executing requests (<= 0:
	// GOMAXPROCS). The admission queue sits in front of the pool.
	Workers int
	// QueueDepth bounds queued-but-not-executing requests (<= 0: 64).
	// A full queue sheds with 429 + Retry-After.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the
	// request does not carry one (<= 0: 10s); MaxTimeout clamps
	// client-supplied deadlines (<= 0: 60s). The deadline spans queue
	// wait plus execution, and a request that waits in the queue for
	// more than half of it is shed instead of started.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// RetryJitterSeed seeds the deterministic jitter stream applied
	// to drain-rate-derived Retry-After advice, so seeded runs replay
	// their backpressure exactly.
	RetryJitterSeed uint64
	// DrainBudget bounds graceful drain: in-flight requests get this
	// long to finish before they are hard-canceled (cooperatively,
	// through their contexts). <= 0: 10s.
	DrainBudget time.Duration
	// ShardID names this node in /statusz and the X-Hbserved-Shard
	// response header (cluster deployments; "" for standalone).
	ShardID string
	// ArtifactStore, when non-nil, is the node's local artifact tier,
	// served to peers at /artifact/{key}. It must be the local store
	// (disk or memory), never the read-through tier chain — serving
	// the chain would recurse a peer's request back out to peers.
	ArtifactStore store.Store
	// Sweeper, when non-nil, is the node's anti-entropy repair loop;
	// the server only surfaces its stats in /statusz (the caller owns
	// Start/Stop).
	Sweeper *store.Sweeper
	// InjectedFaults, when non-nil, is polled by /statusz for the
	// node's fault-injection counters (netchaos.Stats under storm
	// testing; absent in production).
	InjectedFaults func() any
	// Cluster, when non-nil, is this node's gossip membership
	// participant: the server mounts its wire protocol under
	// /cluster/ and surfaces its view in /statusz. The caller owns
	// Start/Stop and the ring-consumer wiring (peer store tiers and
	// the Sweeper re-derive placement from its View).
	Cluster *cluster.Node
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 10 * time.Second
	}
	return c
}

// heapWatermark sheds new admissions while the sampled heap size is
// above this many bytes.
const heapWatermark = 2 << 30

// Catalog is the named-workload catalog (Micro ∪ Spec) keyed by name.
// The server and the front tier both resolve workload names through
// it, so they derive the same engine job — and the same cache key —
// for a request.
func Catalog() map[string]*workloads.Workload {
	ws := append(workloads.Micro(), workloads.Spec()...)
	byName := make(map[string]*workloads.Workload, len(ws))
	for i := range ws {
		byName[ws[i].Name] = &ws[i]
	}
	return byName
}

// Request is the POST /v1/jobs body: either a named workload or
// inline tl source, plus compile/simulate options.
type Request struct {
	// Workload names a catalog workload; Source is inline tl. Exactly
	// one must be set.
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Class labels the request's workload class, which the response
	// echoes as workload_class (default: the workload name, or "adhoc"
	// for inline source). The server keeps no per-class state.
	Class string `json:"class,omitempty"`
	// Ordering is the phase ordering (default "(IUPO)").
	Ordering string `json:"ordering,omitempty"`
	// Sim selects the simulator: "timing", "functional", or "" for
	// compile-only.
	Sim string `json:"sim,omitempty"`
	// Entry and Args parameterize the simulated run (default main
	// with the workload's measurement args, or no args for source).
	Entry string  `json:"entry,omitempty"`
	Args  []int64 `json:"args,omitempty"`
	// Profile requests a training run before formation (named
	// workloads profile with their TrainArgs; inline source with
	// Args).
	Profile bool `json:"profile,omitempty"`
	// TimeoutMS is the end-to-end deadline, admission to terminal
	// response, clamped to the server's MaxTimeout (0: the server
	// default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MaxRequestBytes bounds a POST /v1/jobs body at both tiers, hbserved
// and hbfront.
const MaxRequestBytes = 1 << 20

// DecodeRequest reads a POST /v1/jobs body of at most MaxRequestBytes
// that names only Request's fields, and returns the bytes it read
// with it. Both tiers decode through it and hbfront forwards those
// bytes unchanged, so a body one tier accepts the other accepts too;
// an error is the caller's invalid-input answer.
func DecodeRequest(w http.ResponseWriter, r *http.Request) (Request, []byte, error) {
	var req Request
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		return req, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, raw, err
}

// Response is the terminal JSON response for one request. Exactly one
// is produced per submit, whatever happened.
type Response struct {
	// Class is the structured outcome; Error carries detail for every
	// class except ok.
	Class ErrClass `json:"class"`
	Error string   `json:"error,omitempty"`
	// RetryAfterMS advises shed clients when to come back.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Workload/ClassName echo the request for correlation.
	Workload  string `json:"workload,omitempty"`
	ClassName string `json:"workload_class,omitempty"`
	// CacheHit/Coalesced/Retries/Quarantined/WallMS summarize
	// execution (Coalesced: the request waited on a compile another
	// request started instead of running its own).
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	Retries     int     `json:"retries,omitempty"`
	Quarantined bool    `json:"quarantined,omitempty"`
	WallMS      float64 `json:"wall_ms"`
	// ProgramHit reports the request skipped the compiler: the engine's
	// program tier served a program compiled for an earlier or
	// concurrent request that differed only in simulation inputs. SkeletonHit reports the
	// compile replayed a cached formation skeleton; SkeletonFallbacks
	// counts functions in that replay that missed a precondition and
	// reran the greedy search. All three are false on full-result
	// cache hits.
	ProgramHit        bool `json:"program_hit,omitempty"`
	SkeletonHit       bool `json:"skeleton_hit,omitempty"`
	SkeletonFallbacks int  `json:"skeleton_fallbacks,omitempty"`
	// Metrics is the measurement payload (ok and degraded only).
	Metrics *engine.Metrics `json:"metrics,omitempty"`
}

// task is one admitted request moving through the queue.
type task struct {
	job      engine.Job
	class    string
	deadline time.Time
	enqueued time.Time
	ctx      context.Context // the HTTP request's context
	done     chan Response   // buffered(1); exactly one send
}

// Server is the resilient compile-and-simulate service.
type Server struct {
	cfg    Config
	eng    *engine.Engine
	byName map[string]*workloads.Workload

	queue    chan *task
	workerWG sync.WaitGroup

	// admitMu serializes admission against drain: handlers hold the
	// read side while checking the draining flag and enqueueing, so
	// once Drain holds the write side and flips the flag, no handler
	// can race a send onto a queue about to be closed.
	admitMu  sync.RWMutex
	draining bool

	// inflight counts admitted-but-unanswered tasks; drain waits on
	// the WaitGroup, /statusz reads the gauge.
	inflight    sync.WaitGroup
	inflightN   atomic.Int64
	hardCtx     context.Context // canceled when drain exceeds its budget
	hardCancel  context.CancelFunc
	heapBytes   atomic.Uint64
	samplerStop chan struct{}
	samplerDone chan struct{}

	// over derives drain-rate Retry-After advice for sheds.
	over *overload

	start     time.Time
	counts    map[ErrClass]*atomic.Int64
	shedFull  atomic.Int64 // shed: queue full
	shedAge   atomic.Int64 // shed: waited over half its deadline
	shedHeap  atomic.Int64 // shed: heap watermark
	shedDrain atomic.Int64 // shed: draining

	drainOnce sync.Once
	drainErr  error
}

// New builds and starts a server: workers and the heap sampler run
// immediately; attach Handler() to an http.Server to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		eng:         cfg.Engine,
		byName:      Catalog(),
		queue:       make(chan *task, cfg.QueueDepth),
		hardCtx:     hardCtx,
		hardCancel:  hardCancel,
		samplerStop: make(chan struct{}),
		samplerDone: make(chan struct{}),
		over:        newOverload(cfg.RetryJitterSeed),
		start:       time.Now(),
		counts:      map[ErrClass]*atomic.Int64{},
	}
	for _, c := range Classes {
		s.counts[c] = &atomic.Int64{}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	go s.sampleHeap()
	return s, nil
}

// sampleHeap keeps a fresh heap-size reading for the admission
// watermark without paying ReadMemStats on every request.
func (s *Server) sampleHeap() {
	defer close(s.samplerDone)
	var ms runtime.MemStats
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	runtime.ReadMemStats(&ms)
	s.heapBytes.Store(ms.HeapAlloc)
	for {
		select {
		case <-s.samplerStop:
			return
		case <-t.C:
			runtime.ReadMemStats(&ms)
			s.heapBytes.Store(ms.HeapAlloc)
		}
	}
}

// worker drains the admission queue, executing each task under its
// deadline and answering exactly once.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		t.done <- s.process(t)
		s.inflightN.Add(-1)
		s.inflight.Done()
	}
}

// process executes one dequeued task: shed it if it waited in the
// queue for more than half its deadline, otherwise run it through the
// engine under the remaining budget (at least the other half), wired
// for drain hard-cancel.
func (s *Server) process(t *task) Response {
	now := time.Now()
	budget := t.deadline.Sub(t.enqueued)
	if age := now.Sub(t.enqueued); age > budget/2 {
		s.shedAge.Add(1)
		return shed(t.class, fmt.Sprintf("waited %s in queue, over half the %s deadline", age.Round(time.Millisecond), budget), s.retryAfter(budget))
	}
	// The request context carries client disconnects; the drain hard
	// context cancels in-flight work once the drain budget is spent;
	// the deadline rides on the parent so the engine's retry guard
	// (ctx.Err() == nil) can never grant a timed-out attempt a second
	// full budget. All three propagate cooperatively end-to-end.
	ctx, cancel := context.WithDeadline(t.ctx, t.deadline)
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	job := t.job
	job.Timeout = t.deadline.Sub(now)
	res := s.eng.Submit(ctx, job)
	class := Classify(res)
	resp := Response{
		Class:             class,
		Workload:          t.job.Workload,
		ClassName:         t.class,
		CacheHit:          res.CacheHit,
		Coalesced:         res.Coalesced,
		Retries:           res.Retries,
		Quarantined:       res.Quarantined,
		WallMS:            float64(res.WallNS) / 1e6,
		ProgramHit:        res.ProgramHit,
		SkeletonHit:       res.SkeletonHit,
		SkeletonFallbacks: res.SkeletonFallbacks,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	if class == ClassOK || class == ClassDegraded {
		m := res.Metrics
		resp.Metrics = &m
		// Completed service feeds the Retry-After estimate: engine
		// wall time, not queue wait, since the advice multiplies it by
		// the backlog.
		s.over.observe(time.Duration(res.WallNS))
	}
	return resp
}

// retryAfter derives shed Retry-After advice from the current queue
// length and observed drain rate, with deterministic seeded jitter.
// Half the shed request's deadline stands in while the estimate is
// cold and bounds it at four times that.
func (s *Server) retryAfter(budget time.Duration) time.Duration {
	return s.over.retryAfter(len(s.queue), s.cfg.Workers, budget/2)
}

// admitErr says why admission refused a task.
type admitErr int

const (
	admitOK admitErr = iota
	admitDraining
	admitFull
)

// admit enqueues t unless the server is draining or the queue is
// full. It holds the admission read-lock across the flag check and
// the send so drain can never close the queue between them. The
// in-flight counts go up before the send: a worker may dequeue and
// finish t before the send returns, and its Done must never run ahead
// of the matching Add.
func (s *Server) admit(t *task) admitErr {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return admitDraining
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	select {
	case s.queue <- t:
		return admitOK
	default:
		s.inflightN.Add(-1)
		s.inflight.Done()
		return admitFull
	}
}

// Draining reports whether drain has begun.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Drain gracefully shuts the server down: stop admitting (readyz
// flips to 503, new submits shed), let in-flight requests finish
// within the drain budget, then hard-cancel stragglers through their
// contexts and wait for them to unwind cooperatively. It returns nil
// when every admitted request received its terminal response;
// subsequent calls return the first call's result. The HTTP listener
// (if any) should be shut down by the caller after Drain returns.
func (s *Server) Drain() error {
	s.drainOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		s.admitMu.Unlock()

		finished := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(finished)
		}()
		budget := time.NewTimer(s.cfg.DrainBudget)
		defer budget.Stop()
		select {
		case <-finished:
		case <-budget.C:
			// Budget spent: cancel everything in flight. The engine,
			// compiler checkpoints, and simulators unwind
			// cooperatively; give them a grace period bounded by the
			// same budget again before declaring the drain wedged.
			s.hardCancel()
			grace := time.NewTimer(s.cfg.DrainBudget)
			defer grace.Stop()
			select {
			case <-finished:
			case <-grace.C:
				s.drainErr = fmt.Errorf("server: drain wedged: %d requests still in flight after hard cancel", s.inflightN.Load())
			}
		}
		// No admitters can be mid-send (draining flag is set under the
		// write lock), and in-flight work is done: the queue can close
		// so workers exit.
		close(s.queue)
		s.workerWG.Wait()
		close(s.samplerStop)
		<-s.samplerDone
		s.hardCancel()
	})
	return s.drainErr
}

// respond writes the terminal JSON response and bumps the class
// counters. Every handler path funnels through here exactly once.
func (s *Server) respond(w http.ResponseWriter, resp Response) {
	if !resp.Class.Valid() {
		resp.Class = ClassInternal
	}
	s.counts[resp.Class].Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hbserved-Class", string(resp.Class))
	if s.cfg.ShardID != "" {
		w.Header().Set("X-Hbserved-Shard", s.cfg.ShardID)
	}
	if resp.RetryAfterMS > 0 {
		secs := (resp.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(resp.Class.HTTPStatus())
	enc := json.NewEncoder(w)
	_ = enc.Encode(resp)
}

// shed builds a ClassShed response.
func shed(class string, detail string, retryAfter time.Duration) Response {
	return Response{
		Class:        ClassShed,
		Error:        "server: shed: " + detail,
		RetryAfterMS: retryAfter.Milliseconds(),
		ClassName:    class,
	}
}

// buildJob validates the request and translates it into an engine
// job. Validation failures return a ClassInvalidInput response.
func (s *Server) buildJob(req Request) (engine.Job, string, *Response) {
	return BuildJob(s.byName, req)
}

// BuildJob validates a request against a workload catalog and
// translates it into an engine job plus its workload class. Validation
// failures return a ClassInvalidInput response. It is shared with the
// front tier (internal/front), which must derive the same engine job
// — and therefore the same content-addressed cache key — as the shard
// that will execute it, so routing, coalescing, and the shard's own
// cache all agree on the request's identity.
func BuildJob(byName map[string]*workloads.Workload, req Request) (engine.Job, string, *Response) {
	invalid := func(format string, args ...any) (engine.Job, string, *Response) {
		return engine.Job{}, "", &Response{
			Class: ClassInvalidInput,
			Error: fmt.Sprintf("server: invalid input: "+format, args...),
		}
	}
	if (req.Workload == "") == (req.Source == "") {
		return invalid("exactly one of workload or source must be set")
	}
	var job engine.Job
	class := req.Class
	if req.Workload != "" {
		w, ok := byName[req.Workload]
		if !ok {
			return invalid("unknown workload %q", req.Workload)
		}
		job.Workload = w.Name
		job.Source = w.Source
		job.Args = w.Args
		if req.Args != nil {
			job.Args = req.Args
		}
		if req.Profile {
			job.Opts.ProfileFn = "main"
			job.Opts.ProfileArgs = w.TrainArgs
		}
		if class == "" {
			class = w.Name
		}
	} else {
		// Inline source: the front end is cheap, so malformed input
		// is rejected here (taxonomy: invalid-input) instead of
		// burning a worker slot to find out.
		f, err := lang.Parse(req.Source)
		if err != nil {
			return invalid("%v", err)
		}
		if err := lang.Check(f); err != nil {
			return invalid("%v", err)
		}
		job.Workload = "adhoc"
		job.Source = req.Source
		job.Args = req.Args
		if req.Profile {
			job.Opts.ProfileFn = "main"
			job.Opts.ProfileArgs = req.Args
		}
		if class == "" {
			class = "adhoc"
		}
	}
	if req.Ordering != "" {
		known := false
		for _, o := range compiler.Orderings {
			if string(o) == req.Ordering {
				known = true
				break
			}
		}
		if !known {
			return invalid("unknown ordering %q (have %v)", req.Ordering, compiler.Orderings)
		}
		job.Opts.Ordering = compiler.Ordering(req.Ordering)
	}
	switch engine.SimKind(req.Sim) {
	case engine.SimNone, engine.SimTiming, engine.SimFunctional:
		job.Sim = engine.SimKind(req.Sim)
	default:
		return invalid("unknown simulator %q", req.Sim)
	}
	job.Entry = req.Entry
	job.Config = string(job.Opts.Ordering)
	if job.Config == "" {
		job.Config = string(compiler.OrderIUPO1)
	}
	return job, class, nil
}

// timeout clamps the request deadline to server policy.
func (s *Server) timeout(req Request) time.Duration {
	d := time.Duration(req.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// handleJobs is POST /v1/jobs: validate, gate (drain, heap), admit,
// wait for the one terminal response.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, _, err := DecodeRequest(w, r)
	if err != nil {
		s.respond(w, Response{
			Class: ClassInvalidInput,
			Error: fmt.Sprintf("server: invalid input: bad JSON: %v", err),
		})
		return
	}
	job, class, inv := s.buildJob(req)
	if inv != nil {
		s.respond(w, *inv)
		return
	}

	now, budget := time.Now(), s.timeout(req)
	if s.Draining() {
		s.shedDrain.Add(1)
		s.respond(w, shed(class, "draining", s.cfg.DrainBudget))
		return
	}
	if heap := s.heapBytes.Load(); heap > heapWatermark {
		s.shedHeap.Add(1)
		s.respond(w, shed(class, fmt.Sprintf("heap %d bytes above watermark %d", heap, heapWatermark), time.Second))
		return
	}

	t := &task{
		job:      job,
		class:    class,
		deadline: now.Add(budget),
		enqueued: now,
		ctx:      r.Context(),
		done:     make(chan Response, 1),
	}
	switch s.admit(t) {
	case admitDraining:
		s.shedDrain.Add(1)
		s.respond(w, shed(class, "draining", s.cfg.DrainBudget))
		return
	case admitFull:
		s.shedFull.Add(1)
		s.respond(w, shed(class, fmt.Sprintf("admission queue full (%d)", s.cfg.QueueDepth), s.retryAfter(budget)))
		return
	}
	s.respond(w, <-t.done)
}

// Status is the /statusz document.
type Status struct {
	// Build identifies the binary (Go version, VCS revision, cache
	// key schema); ShardID names the node in a cluster.
	Build   buildinfo.Info `json:"build"`
	ShardID string         `json:"shard_id,omitempty"`

	UptimeMS  int64  `json:"uptime_ms"`
	Draining  bool   `json:"draining"`
	Workers   int    `json:"workers"`
	QueueLen  int    `json:"queue_len"`
	QueueCap  int    `json:"queue_cap"`
	InFlight  int64  `json:"in_flight"`
	HeapBytes uint64 `json:"heap_bytes"`
	HeapMark  uint64 `json:"heap_watermark"`
	// Classes counts terminal responses per error class; Shed breaks
	// the shed class down by cause.
	Classes map[ErrClass]int64 `json:"classes"`
	Shed    map[string]int64   `json:"shed"`
	// Overload is the service-time estimate behind drain-rate
	// Retry-After advice.
	Overload OverloadStatus `json:"overload"`
	// Cache is the engine result cache's hit/miss surface; Store
	// breaks the backing artifact tiers down (nil when memory-only);
	// Flights counts the engine's program flights: compiles started,
	// requests that joined one, and compiles running.
	Cache   engine.CacheStats  `json:"cache"`
	Store   *store.Stats       `json:"store,omitempty"`
	Flights engine.FlightStats `json:"flights"`
	// Program is the second cache level: compiled programs served to
	// requests that differ only in simulation inputs. Skeleton is the
	// third: formation-skeleton hits, misses, replay fallbacks, and
	// the instantiation-latency quantiles over recent skeleton-
	// replayed compiles.
	Program  engine.ProgramStats  `json:"program"`
	Skeleton engine.SkeletonStats `json:"skeleton"`
	// AntiEntropy snapshots the replication sweeper (replication-factor
	// histogram, repair pushes); InjectedFaults carries the netchaos
	// counters when a fault injector is attached. Both omitted when
	// absent.
	AntiEntropy    *store.SweepStats `json:"anti_entropy,omitempty"`
	InjectedFaults any               `json:"injected_faults,omitempty"`
	// Membership is the node's failure-detector snapshot (gossip
	// state, incarnation, member table) when it runs in a cluster.
	Membership *cluster.Status `json:"membership,omitempty"`
}

// StatusSnapshot assembles the current Status (also used by tests,
// which assert on it directly instead of re-parsing JSON).
func (s *Server) StatusSnapshot() Status {
	st := Status{
		Build:     buildinfo.Collect("hbserved"),
		ShardID:   s.cfg.ShardID,
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Draining:  s.Draining(),
		Workers:   s.cfg.Workers,
		QueueLen:  len(s.queue),
		QueueCap:  s.cfg.QueueDepth,
		InFlight:  s.inflightN.Load(),
		HeapBytes: s.heapBytes.Load(),
		HeapMark:  heapWatermark,
		Classes:   map[ErrClass]int64{},
		Shed: map[string]int64{
			"queue_full":     s.shedFull.Load(),
			"queue_age":      s.shedAge.Load(),
			"heap_watermark": s.shedHeap.Load(),
			"draining":       s.shedDrain.Load(),
		},
		Overload: s.over.status(),
		Cache:    s.eng.Cache().Stats(),
		Store:    s.eng.Cache().StoreStats(),
		Flights:  s.eng.FlightStats(),
		Program:  s.eng.ProgramStats(),
		Skeleton: s.eng.SkeletonStats(),
	}
	for c, n := range s.counts {
		st.Classes[c] = n.Load()
	}
	if s.cfg.Sweeper != nil {
		sw := s.cfg.Sweeper.Stats()
		st.AntiEntropy = &sw
	}
	if s.cfg.InjectedFaults != nil {
		st.InjectedFaults = s.cfg.InjectedFaults()
	}
	if s.cfg.Cluster != nil {
		ms := s.cfg.Cluster.Status()
		st.Membership = &ms
	}
	return st
}

// Handler returns the server's HTTP mux:
//
//	POST /v1/jobs        — submit a compile/simulate request
//	GET  /healthz        — liveness (always 200 while the process serves)
//	GET  /readyz         — admission readiness (503 once draining)
//	GET  /statusz        — JSON status document
//	GET/PUT /artifact/…  — the peer artifact protocol (when
//	                       Config.ArtifactStore is set)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	if s.cfg.ArtifactStore != nil {
		mux.Handle(store.ArtifactPath, store.NewHandler(s.cfg.ArtifactStore, engine.KeySchema))
	}
	if s.cfg.Cluster != nil {
		mux.Handle(cluster.PathPrefix, s.cfg.Cluster.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.StatusSnapshot())
	})
	return mux
}
