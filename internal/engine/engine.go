package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/memo"
	"repro/internal/metrics"
	"repro/internal/sim/timing"
)

// ErrTimeout reports that a job exceeded its deadline. The deadline's
// context is threaded into the timing simulator, which polls it
// between blocks and exits cooperatively; a non-preemptible phase
// (the compiler) still costs one worker slot until it returns, but
// never wedges the table.
var ErrTimeout = errors.New("engine: job timed out")

// ErrPanic marks a job whose body panicked; the full panic value and
// stack are in the wrapping error (errors.Is(err, ErrPanic)).
var ErrPanic = errors.New("engine: job panicked")

// ErrQuarantined marks a job the engine refused to run because the
// same job already tripped the simulator watchdog. A trip is a pure
// function of the program, the simulator configuration and the chaos
// plan, so a rerun trips at the same block: further submissions fail
// fast with this error until a new engine is built.
var ErrQuarantined = errors.New("engine: job quarantined after a watchdog trip")

// ErrCanceled marks a job aborted because its submission context was
// canceled (errors.Is(err, context.Canceled) also holds). A canceled
// job is never retried: the caller has already walked away.
var ErrCanceled = errors.New("engine: job canceled")

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds concurrent jobs (<= 0: runtime.GOMAXPROCS(0)).
	Workers int
	// Cache is the result cache (nil: a fresh in-memory cache).
	Cache *Cache
	// Timeout is the default per-job deadline (0: none).
	Timeout time.Duration
	// Tracer, when non-nil, records per-job events and counters.
	Tracer *Tracer
	// RetryBackoff is the pause before a failed job's single retry.
	// A job is retried once after a panic or timeout (transient-looking
	// failures); ordinary compile/sim errors and watchdog trips are
	// not retried. Zero means the 50ms default; negative disables
	// retries entirely.
	RetryBackoff time.Duration
	// Chaos, when non-nil, arms deterministic fault injection on
	// every timing-simulator job: the plan's faults (forced
	// mispredicts, operand-network jitter, commit delays, fetch
	// stalls) perturb cycle counts but never architectural state.
	// Chaos jobs bypass the result cache, since their metrics depend
	// on the plan as well as the job content; injected-fault counts
	// and watchdog trips are recorded in the trace.
	Chaos *chaos.Plan
}

// defaultRetryBackoff is the pause before the one retry of a panicked
// or timed-out job.
const defaultRetryBackoff = 50 * time.Millisecond

// Engine runs compile+simulate jobs on a bounded worker pool with
// content-addressed caching, panic isolation, deadlines, optional
// chaos fault injection, and watchdog quarantine.
type Engine struct {
	workers int
	cache   *Cache
	timeout time.Duration
	tracer  *Tracer
	backoff time.Duration // < 0: retries disabled
	chaos   *chaos.Plan

	// Watchdog quarantine: jobs (by content key) that tripped the
	// simulator watchdog are refused instead of re-run.
	qmu         sync.Mutex
	quarantined map[string]bool

	// submitSeq indexes Submit results in trace events (Run indexes
	// by slice position instead).
	submitSeq atomic.Int64

	// Program tier: compiled programs keyed on the job minus its
	// simulation fields (see ProgramKey), with one compile per key in
	// flight (see program.go).
	progs    *programCache
	pflights *memo.Flights[string, programOutcome]

	// Skeleton tier: formation decision traces keyed on the
	// parameter-independent part of the job (see SkeletonKey), shared
	// through the cache's backing store, plus the instantiation-
	// latency window (ns) fed by skeleton-replayed compiles.
	skel    *skeletonCache
	instLat *metrics.Window
}

// New builds an engine. The zero Config is valid: GOMAXPROCS workers,
// fresh in-memory cache, no timeout, no tracer, no chaos.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	c := cfg.Cache
	if c == nil {
		c = NewCache()
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = defaultRetryBackoff
	}
	return &Engine{
		workers: w, cache: c, timeout: cfg.Timeout, tracer: cfg.Tracer,
		backoff: backoff, chaos: cfg.Chaos,
		quarantined: map[string]bool{},
		progs:       newProgramCache(),
		pflights:    memo.NewFlights[string, programOutcome](),
		skel:        newSkeletonCache(c.Store()),
		instLat:     metrics.NewWindow(instLatWindow),
	}
}

// Default returns an engine with the zero configuration.
func Default() *Engine { return New(Config{}) }

// Cache exposes the engine's result cache (e.g. for hit-rate
// reporting).
func (e *Engine) Cache() *Cache { return e.cache }

// Result is one finished job.
type Result struct {
	// Job echoes the submitted job; Index is its position in the
	// submitted slice.
	Job   Job
	Index int
	// Key is the content-addressed cache key ("" for uncacheable
	// jobs); CacheHit reports that Metrics came from the cache;
	// Coalesced reports that this submission waited on a compile
	// another submission with the same ProgramKey had started, instead
	// of compiling (N concurrent identical requests cost one compile).
	Key       string
	CacheHit  bool
	Coalesced bool
	// Metrics and Err are the job's outcome. Err is non-nil for
	// compile/sim failures, panics (wrapped with the stack), timeouts
	// (errors.Is(err, ErrTimeout)), watchdog aborts (errors.Is(err,
	// timing.ErrWatchdog)), and quarantine refusals (errors.Is(err,
	// ErrQuarantined)). On a watchdog abort, Metrics still carries
	// the partial run's counters (cycles to the last commit, faults
	// injected).
	Metrics Metrics
	Err     error
	// WallNS is the job's wall-clock time in this run (near zero on
	// a cache hit).
	WallNS int64
	// Retries counts re-executions after a panic or timeout (0 or 1).
	// A flaky cell that succeeded on retry has Retries == 1,
	// Err == nil; the trace records it so flakiness stays visible.
	Retries int
	// WatchdogTrips is 1 when the submission ended on a
	// simulator-watchdog abort, which quarantines the job;
	// Quarantined reports that the job is now (or already was)
	// quarantined.
	WatchdogTrips int
	Quarantined   bool
	// ProgramHit reports that this result skipped the compiler: the
	// program tier served a program compiled for an earlier job, or
	// one a concurrent job with the same ProgramKey was compiling.
	// SkeletonHit reports that the compile behind this result replayed
	// a cached formation skeleton rather than running the full greedy
	// search. SkeletonFallbacks counts the functions within that
	// replay that missed a recorded precondition and reran greedy
	// formation. All three are false on full-result cache hits, which
	// did not compile at all.
	ProgramHit        bool
	SkeletonHit       bool
	SkeletonFallbacks int
}

// Run executes the jobs with bounded parallelism and returns results
// in submission order: results[i] corresponds to jobs[i] no matter
// how the pool scheduled them, so aggregation over results is
// deterministic. Per-job failures land in Result.Err; Run itself
// never fails. Trace events are flushed per job as each one finishes
// (not at the end of the run), so a hung or timed-out cell is already
// visible in the trace while the rest of the table is still running.
func (e *Engine) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = e.runOne(context.Background(), i, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// RunJob is the one-shot convenience for single-job clients
// (cmd/hbsim): no pool, no shared cache.
func RunJob(j Job) (Metrics, error) {
	r := New(Config{Workers: 1}).Run([]Job{j})[0]
	return r.Metrics, r.Err
}

// Submit runs one job synchronously under the caller's context,
// sharing the engine's cache, quarantine ledger, chaos plan, and
// tracer with every other submission. It is the serving-layer entry
// point: ctx cancellation propagates end-to-end (parse → formation
// checkpoints → simulator block polls), a canceled job is never
// retried, and exactly one trace event is flushed per call no matter
// how the attempts ended. Concurrency control is the caller's job —
// Submit does not queue.
func (e *Engine) Submit(ctx context.Context, j Job) Result {
	return e.runOne(ctx, int(e.submitSeq.Add(1)-1), j)
}

// quarantineKey identifies a job for watchdog bookkeeping: its
// content key when it has one, the display labels otherwise.
func quarantineKey(j Job, key string) string {
	if key != "" {
		return key
	}
	return j.Workload + "\x00" + j.Config
}

// isQuarantined reports whether the job was quarantined earlier.
func (e *Engine) isQuarantined(qkey string) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	return e.quarantined[qkey]
}

// quarantine refuses every later submission of the job.
func (e *Engine) quarantine(qkey string) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.quarantined[qkey] = true
}

// injector returns the fault injector for the job, or nil when chaos
// is off. Only timing-simulator jobs have injection points.
func (e *Engine) injector(j Job) timing.Injector {
	if e.chaos == nil || j.Sim != SimTiming || j.Fn != nil {
		return nil
	}
	return *e.chaos
}

func (e *Engine) runOne(ctx context.Context, i int, j Job) Result {
	r := Result{Job: j, Index: i}
	start := time.Now()
	finish := func() Result {
		r.WallNS = time.Since(start).Nanoseconds()
		if e.tracer != nil {
			e.tracer.observe(&r)
		}
		return r
	}

	key, kerr := Key(j)
	if kerr == nil {
		r.Key = key
	}
	qkey := quarantineKey(j, r.Key)
	if e.isQuarantined(qkey) {
		r.Quarantined = true
		r.Err = fmt.Errorf("engine: job %s/%s: %w", j.Workload, j.Config, ErrQuarantined)
		return finish()
	}

	inj := e.injector(j)
	// Chaos perturbs the metrics, so chaos runs neither read nor
	// write the cache: a cached fault-free cycle count must never be
	// returned for a chaos job, and vice versa. Chaos and custom-body
	// jobs compile from source and neither read nor fill the program
	// tier either.
	cacheable := kerr == nil && inj == nil
	compile := compileSource
	if cacheable {
		if m, ok := e.cache.GetContext(ctx, key); ok {
			// Labels are display-only and excluded from the key, so
			// restamp them from this job rather than trusting the
			// entry's provenance.
			m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
			r.Metrics = m
			r.CacheHit = true
			return finish()
		}
		compile = e.program
	}
	timeout := j.Timeout
	if timeout == 0 {
		timeout = e.timeout
	}
	o := e.attempt(ctx, j, timeout, inj, compile)
	r.Metrics, r.Err, r.Retries = o.m, o.err, o.retries
	r.Coalesced, r.ProgramHit = o.tier.coalesced, o.tier.programHit
	r.SkeletonHit, r.SkeletonFallbacks = o.tier.skeletonHit, o.tier.fallbacks
	if errors.Is(r.Err, timing.ErrWatchdog) {
		r.WatchdogTrips = 1
		r.Quarantined = true
		e.quarantine(qkey)
	}
	if cacheable && r.Err == nil {
		e.cache.Put(key, r.Metrics)
	}
	return finish()
}

// attemptOutcome is one execution's result: the metrics, the error,
// the retry count, and how the compile was served.
type attemptOutcome struct {
	m       Metrics
	err     error
	retries int
	tier    tierOutcome
}

// attempt executes the job body once, plus the engine's single
// transient-failure retry. Panics and timeouts may be environmental
// (resource pressure, a scheduling hiccup): retry once after a short
// backoff before giving the row up. A watchdog trip is not retried:
// the simulator and the fault plans are deterministic, so the rerun
// would trip at the same block, and the caller quarantines the job
// instead. An attempt whose own context has ended (deadline passed,
// caller gone) is never retried: the second attempt would be
// stillborn, and the caller must still receive exactly one terminal
// result promptly.
func (e *Engine) attempt(ctx context.Context, j Job, timeout time.Duration, inj timing.Injector, compile compileFunc) attemptOutcome {
	var o attemptOutcome
	o.m, o.tier, o.err = runIsolated(ctx, j, timeout, inj, compile)
	if e.backoff >= 0 && o.err != nil && ctx.Err() == nil &&
		(errors.Is(o.err, ErrTimeout) || errors.Is(o.err, ErrPanic)) {
		time.Sleep(e.backoff)
		if ctx.Err() == nil {
			o.retries = 1
			o.m, o.tier, o.err = runIsolated(ctx, j, timeout, inj, compile)
		}
	}
	return o
}

// runIsolated executes the job body in its own goroutine so that a
// panic is converted to an error and a deadline can be enforced. The
// deadline context (derived from the submission's parent context) is
// passed to the body, where the compiler's phase checkpoints and both
// simulators poll it: on timeout or cancellation the body exits
// cooperatively instead of the goroutine being abandoned mid-run.
func runIsolated(parent context.Context, j Job, timeout time.Duration, inj timing.Injector, compile compileFunc) (Metrics, tierOutcome, error) {
	type outcome struct {
		m    Metrics
		tier tierOutcome
		err  error
	}
	ctx := parent
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	}
	defer cancel()
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				done <- outcome{err: fmt.Errorf("%w: job %s/%s: %v\n%s",
					ErrPanic, j.Workload, j.Config, rec, debug.Stack())}
			}
		}()
		m, tier, err := j.execute(ctx, inj, compile)
		done <- outcome{m, tier, err}
	}()
	timeoutErr := func() error {
		return fmt.Errorf("engine: job %s/%s exceeded %s: %w", j.Workload, j.Config, timeout, ErrTimeout)
	}
	canceledErr := func() error {
		return fmt.Errorf("%w: job %s/%s: %w", ErrCanceled, j.Workload, j.Config, context.Canceled)
	}
	classify := func(o outcome) (Metrics, tierOutcome, error) {
		// The body may have observed the context itself and returned
		// its error; normalize deadline hits to ErrTimeout and caller
		// cancellations to ErrCanceled so every path classifies the
		// same way.
		switch {
		case o.err == nil:
		case errors.Is(o.err, context.DeadlineExceeded):
			o.err = timeoutErr()
		case errors.Is(o.err, context.Canceled):
			o.err = canceledErr()
		}
		return o.m, o.tier, o.err
	}
	select {
	case o := <-done:
		return classify(o)
	case <-ctx.Done():
		// The body may be one context poll away from returning its
		// own, more informative outcome (a watchdog trip, partial
		// metrics): give it one brief grace interval before
		// synthesizing the abort error, so a cooperative exit that
		// raced the select never loses its result.
		grace := time.NewTimer(5 * time.Millisecond)
		defer grace.Stop()
		select {
		case o := <-done:
			return classify(o)
		case <-grace.C:
		}
		// Hard abort: the body is wedged in a non-cooperative phase.
		// It still holds a goroutine until it reaches its next
		// checkpoint, but the submission resolves now.
		if errors.Is(ctx.Err(), context.Canceled) {
			return Metrics{}, tierOutcome{}, canceledErr()
		}
		return Metrics{}, tierOutcome{}, timeoutErr()
	}
}
