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
// same job already tripped the simulator watchdog twice (once plus
// its retry). A quarantined job is structurally stuck — retrying it
// forever would burn a worker slot on every submission — so further
// submissions fail fast with this error until a new engine is built.
var ErrQuarantined = errors.New("engine: job quarantined after repeated watchdog trips")

// ErrCanceled marks a job aborted because its submission context was
// canceled (errors.Is(err, context.Canceled) also holds). A canceled
// job is never retried: the caller has already walked away.
var ErrCanceled = errors.New("engine: job canceled")

// watchdogQuarantineThreshold is the number of watchdog trips (across
// attempts and submissions) after which a job is quarantined.
const watchdogQuarantineThreshold = 2

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
	// A job is retried once after a panic, timeout, or watchdog trip
	// (transient-looking failures); ordinary compile/sim errors are
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
	// simulator watchdog watchdogQuarantineThreshold times are
	// refused instead of re-run.
	qmu         sync.Mutex
	wdTrips     map[string]int
	quarantined map[string]bool

	// Single-flight: identical in-flight cacheable jobs coalesce onto
	// one execution (see singleflight.go).
	flights *flightTable[attemptOutcome]
	fstats  flightCounters
	// flightHook, when set (tests only), runs in the flight runner
	// just before the compile starts.
	flightHook func(key string)

	// submitSeq indexes Submit results in trace events (Run indexes
	// by slice position instead).
	submitSeq atomic.Int64

	// Program tier: compiled programs keyed on the job minus its
	// simulation fields (see ProgramKey), with one compile per key in
	// flight (see program.go).
	progs    *programCache
	pflights *flightTable[programOutcome]

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
		wdTrips: map[string]int{}, quarantined: map[string]bool{},
		flights:  newFlightTable[attemptOutcome](),
		progs:    newProgramCache(),
		pflights: newFlightTable[programOutcome](),
		skel:     newSkeletonCache(c.Store()),
		instLat:  metrics.NewWindow(instLatWindow),
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
	// Coalesced reports that this submission joined another identical
	// in-flight submission instead of compiling (cluster-wide
	// single-flight: N concurrent identical requests cost one
	// compile).
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
	// Retries counts re-executions after a panic, timeout, or
	// watchdog trip (0 or 1). A flaky cell that succeeded on retry
	// has Retries == 1, Err == nil; the trace records it so
	// flakiness stays visible.
	Retries int
	// WatchdogTrips counts simulator-watchdog aborts across this
	// submission's attempts; Quarantined reports that the job is now
	// (or already was) quarantined.
	WatchdogTrips int
	Quarantined   bool
	// ProgramHit reports that this result skipped the compiler: the
	// program tier served a program compiled for an earlier job, or
	// one a concurrent job with the same ProgramKey was compiling.
	// SkeletonHit reports that the compile behind this result replayed
	// a cached formation skeleton rather than running the full greedy
	// search. SkeletonFallbacks counts the functions within that
	// replay that missed a recorded precondition and reran greedy
	// formation. All three are set on the runner and every coalesced
	// waiter alike, and are false on full-result cache hits, which did
	// not compile at all.
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

// recordWatchdogTrips accumulates trips for the job and quarantines
// it once it crosses the threshold, reporting the new quarantine
// state.
func (e *Engine) recordWatchdogTrips(qkey string, trips int) bool {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	e.wdTrips[qkey] += trips
	if e.wdTrips[qkey] >= watchdogQuarantineThreshold {
		e.quarantined[qkey] = true
	}
	return e.quarantined[qkey]
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
	// write the cache (nor coalesce): a cached fault-free cycle count
	// must never be returned for a chaos job, and vice versa.
	cacheable := kerr == nil && inj == nil
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
	}
	timeout := j.Timeout
	if timeout == 0 {
		timeout = e.timeout
	}
	if cacheable {
		// Identical concurrent submissions coalesce onto one compile;
		// the shared outcome lands in the cache once.
		e.runCoalesced(ctx, &r, j, key, qkey, timeout)
		return finish()
	}
	// Chaos and custom-body jobs compile from source: neither reads
	// nor fills the program tier.
	o := e.attempt(ctx, j, timeout, inj, compileSource)
	r.Metrics, r.Err, r.Retries, r.WatchdogTrips = o.m, o.err, o.retries, o.wdTrips
	if r.WatchdogTrips > 0 {
		r.Quarantined = e.recordWatchdogTrips(qkey, r.WatchdogTrips)
	}
	return finish()
}

// attemptOutcome is one execution's result: the metrics, the error,
// and the retry/watchdog bookkeeping that feeds quarantine. Flight
// runners also record the program- and skeleton-tier outcome here so
// coalesced waiters report it identically.
type attemptOutcome struct {
	m       Metrics
	err     error
	retries int
	wdTrips int
	tier    tierOutcome
}

// attempt executes the job body once, plus the engine's single
// transient-failure retry. Panics, timeouts, and watchdog trips may
// be environmental (resource pressure, a scheduling hiccup, an
// over-aggressive fault plan): retry once after a short backoff
// before giving the row up. Deterministic failures just fail again —
// and a job whose retry also trips the watchdog is quarantined by the
// caller rather than resubmitted forever. An attempt whose own
// context has ended (deadline passed, caller gone) is never retried:
// the second attempt would be stillborn, and the caller must still
// receive exactly one terminal result promptly.
func (e *Engine) attempt(ctx context.Context, j Job, timeout time.Duration, inj timing.Injector, compile compileFunc) attemptOutcome {
	var o attemptOutcome
	o.m, o.err = runIsolated(ctx, j, timeout, inj, compile)
	if o.err != nil && errors.Is(o.err, timing.ErrWatchdog) {
		o.wdTrips++
	}
	if e.backoff >= 0 && o.err != nil && ctx.Err() == nil &&
		(errors.Is(o.err, ErrTimeout) || errors.Is(o.err, ErrPanic) || errors.Is(o.err, timing.ErrWatchdog)) {
		time.Sleep(e.backoff)
		if ctx.Err() == nil {
			o.retries = 1
			o.m, o.err = runIsolated(ctx, j, timeout, inj, compile)
			if o.err != nil && errors.Is(o.err, timing.ErrWatchdog) {
				o.wdTrips++
			}
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
func runIsolated(parent context.Context, j Job, timeout time.Duration, inj timing.Injector, compile compileFunc) (Metrics, error) {
	type outcome struct {
		m   Metrics
		err error
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
		m, err := j.execute(ctx, inj, compile)
		done <- outcome{m, err}
	}()
	timeoutErr := func() error {
		return fmt.Errorf("engine: job %s/%s exceeded %s: %w", j.Workload, j.Config, timeout, ErrTimeout)
	}
	canceledErr := func() error {
		return fmt.Errorf("%w: job %s/%s: %w", ErrCanceled, j.Workload, j.Config, context.Canceled)
	}
	classify := func(m Metrics, err error) (Metrics, error) {
		// The body may have observed the context itself and returned
		// its error; normalize deadline hits to ErrTimeout and caller
		// cancellations to ErrCanceled so every path classifies the
		// same way.
		switch {
		case err == nil:
			return m, nil
		case errors.Is(err, context.DeadlineExceeded):
			return m, timeoutErr()
		case errors.Is(err, context.Canceled):
			return m, canceledErr()
		}
		return m, err
	}
	select {
	case o := <-done:
		return classify(o.m, o.err)
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
			return classify(o.m, o.err)
		case <-grace.C:
		}
		// Hard abort: the body is wedged in a non-cooperative phase.
		// It still holds a goroutine until it reaches its next
		// checkpoint, but the submission resolves now.
		if errors.Is(ctx.Err(), context.Canceled) {
			return Metrics{}, canceledErr()
		}
		return Metrics{}, timeoutErr()
	}
}
