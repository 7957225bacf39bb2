// Package engine is the experiment execution engine: a worker-pool
// job runner for (workload, configuration) compile+simulate jobs with
// a content-addressed result cache, a tier of compiled programs that
// jobs differing only in simulation inputs share, per-job panic
// isolation and timeouts, and a structured observability layer.
//
// The paper's evaluation (Tables 1–3, Figure 7) is embarrassingly
// parallel — every cell is an independent compile+simulate job — so
// the tables in internal/experiments build a flat job list and submit
// it here instead of compiling serially. Results come back in
// submission order regardless of scheduling, which keeps table output
// byte-identical to a serial run.
package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim/functional"
	"repro/internal/sim/timing"
)

// SimKind selects the simulator a job runs after compiling.
type SimKind string

// The supported simulators. SimNone compiles without simulating
// (cmd/hbc's mode).
const (
	SimNone       SimKind = ""
	SimTiming     SimKind = "timing"
	SimFunctional SimKind = "functional"
)

// Job is one compile+simulate unit of work. Workload and Config are
// display labels (they do not affect the cache key); Source, Opts,
// Sim, SimConfig, Entry and Args define the computation and are
// hashed into the key.
type Job struct {
	// Workload and Config label the job in results and traces
	// (benchmark name and ordering/heuristic name, respectively).
	Workload string
	Config   string
	// Source is the tl program to compile.
	Source string
	// Opts configure the compilation.
	Opts compiler.Options
	// Sim selects the simulator; SimConfig parameterizes the timing
	// model (zero value = timing.DefaultConfig()).
	Sim       SimKind
	SimConfig timing.Config
	// Entry is the simulated function (default "main"); Args are the
	// measurement-run arguments.
	Entry string
	Args  []int64
	// Timeout overrides the engine's per-job timeout when non-zero.
	Timeout time.Duration
	// Fn, when non-nil, replaces the compile+simulate body entirely
	// (tests and custom extensions). Fn jobs bypass the cache.
	Fn func() (Metrics, error)
}

// Metrics is the unified per-job measurement record: static formation
// statistics plus whichever simulator counters the job's SimKind
// produced. It is the engine's cache value and the payload of the
// -json flags in cmd/hbc and cmd/hbsim.
type Metrics struct {
	Workload string  `json:"workload,omitempty"`
	Config   string  `json:"config,omitempty"`
	Sim      SimKind `json:"sim,omitempty"`

	// Form are the static formation statistics (the paper's m/t/u/p);
	// UP are the discrete unroll/peel phase's counters.
	Form core.Stats               `json:"form"`
	UP   compiler.UnrollPeelStats `json:"up"`

	// Degraded lists functions the mid end rolled back to basic-block
	// form after a per-function phase failure (see core.Degradation).
	Degraded []core.Degradation `json:"degraded,omitempty"`

	// Result is main's return value; Output collects its prints.
	Result int64   `json:"result"`
	Output []int64 `json:"output,omitempty"`

	// Shared simulator counters.
	Blocks   int64 `json:"blocks"`
	Executed int64 `json:"executed"`
	Fetched  int64 `json:"fetched"`
	Calls    int64 `json:"calls,omitempty"`

	// Timing-simulator counters (SimTiming only).
	Cycles        int64 `json:"cycles,omitempty"`
	ExitLookups   int64 `json:"exit_lookups,omitempty"`
	Mispredicts   int64 `json:"mispredicts,omitempty"`
	Flushes       int64 `json:"flushes,omitempty"`
	CacheAccesses int64 `json:"cache_accesses,omitempty"`
	CacheMisses   int64 `json:"cache_misses,omitempty"`

	// FaultsInjected counts chaos faults landed in the timing run
	// (non-zero only when the engine ran the job under a chaos plan;
	// see Config.Chaos).
	FaultsInjected int64 `json:"faults_injected,omitempty"`

	// Functional-simulator counters (SimFunctional only).
	Branches int64 `json:"branches,omitempty"`
	Loads    int64 `json:"loads,omitempty"`
	Stores   int64 `json:"stores,omitempty"`

	// Per-phase wall time. Cached results carry the times of the run
	// that produced them.
	CompileNS int64 `json:"compile_ns"`
	SimNS     int64 `json:"sim_ns"`
}

// MispredictRate returns mispredicts per multi-exit lookup.
func (m Metrics) MispredictRate() float64 {
	if m.ExitLookups == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.ExitLookups)
}

// entry returns the simulated function name.
func (j Job) entry() string {
	if j.Entry == "" {
		return "main"
	}
	return j.Entry
}

// simConfig returns the timing configuration with defaults applied.
func (j Job) simConfig() timing.Config {
	if j.SimConfig.IssueWidth == 0 {
		return timing.DefaultConfig()
	}
	return j.SimConfig
}

// compiled is one compiled program and the compile-side metrics every
// simulation of it reports. Simulators only read the program, so one
// compiled value may be simulated by many jobs at once.
type compiled struct {
	prog     *ir.Program
	form     core.Stats
	up       compiler.UnrollPeelStats
	degraded []core.Degradation
}

// tierOutcome records which engine tier served a compile: a cached or
// in-flight program (programHit), or a compile that replayed a
// formation skeleton (skeletonHit, with the functions whose replay
// fell back to greedy formation). coalesced marks a job that waited on
// a compile another job started.
type tierOutcome struct {
	programHit  bool
	skeletonHit bool
	fallbacks   int
	coalesced   bool
}

// compileFunc obtains a job's compiled program: compileSource compiles
// it, Engine.program serves it through the program tier.
type compileFunc func(ctx context.Context, j Job) (*compiled, tierOutcome, error)

// compileSource compiles the job from source.
func compileSource(ctx context.Context, j Job) (*compiled, tierOutcome, error) {
	res, err := compiler.CompileContext(ctx, j.Source, j.Opts)
	if err != nil {
		return nil, tierOutcome{}, err
	}
	return &compiled{prog: res.Prog, form: res.FormStats, up: res.UPStats, degraded: res.Degraded}, tierOutcome{}, nil
}

// execute runs the job body: obtain the compiled program from compile,
// then simulate. Errors carry the workload/config labels exactly as
// the serial harness formatted them. ctx is the engine deadline (the
// timing simulator polls it between blocks); inj, when non-nil, is the
// chaos fault injector for timing runs. On a simulator error the
// returned Metrics still carry the partial run's counters, so a
// watchdog abort's cycles-so-far and injected-fault counts reach the
// trace. The tier outcome says how compile served the program.
func (j Job) execute(ctx context.Context, inj timing.Injector, compile compileFunc) (Metrics, tierOutcome, error) {
	if j.Fn != nil {
		m, err := j.Fn()
		return m, tierOutcome{}, err
	}
	m := Metrics{Workload: j.Workload, Config: j.Config, Sim: j.Sim}

	t0 := time.Now()
	c, tier, err := compile(ctx, j)
	m.CompileNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return m, tier, fmt.Errorf("%s/%s: %w", j.Workload, j.Config, err)
	}
	m.Form = c.form
	m.UP = c.up
	m.Degraded = slices.Clone(c.degraded)

	t1 := time.Now()
	switch j.Sim {
	case SimNone:
	case SimTiming:
		mach := timing.New(c.prog, j.simConfig())
		mach.Inject = inj
		v, rerr := mach.RunContext(ctx, j.entry(), j.Args...)
		s := mach.Stats
		m.Result = v
		m.Output = mach.Output
		m.Cycles = s.Cycles
		m.Blocks = s.Blocks
		m.Executed = s.Executed
		m.Fetched = s.Fetched
		m.ExitLookups = s.ExitLookups
		m.Mispredicts = s.Mispredicts
		m.Flushes = s.Flushes
		m.CacheAccesses = s.CacheAccesses
		m.CacheMisses = s.CacheMisses
		m.Calls = s.Calls
		m.FaultsInjected = s.Faults.Total()
		if rerr != nil {
			m.SimNS = time.Since(t1).Nanoseconds()
			return m, tier, fmt.Errorf("%s/%s: %w", j.Workload, j.Config, rerr)
		}
	case SimFunctional:
		mach := functional.New(c.prog)
		v, err := mach.RunContext(ctx, j.entry(), j.Args...)
		if err != nil {
			return m, tier, fmt.Errorf("%s/%s: %w", j.Workload, j.Config, err)
		}
		s := mach.Stats
		m.Result = v
		m.Output = mach.Output
		m.Blocks = s.Blocks
		m.Executed = s.Executed
		m.Fetched = s.Fetched
		m.Branches = s.Branches
		m.Loads = s.Loads
		m.Stores = s.Stores
		m.Calls = s.Calls
	default:
		return m, tier, fmt.Errorf("%s/%s: engine: unknown simulator %q", j.Workload, j.Config, j.Sim)
	}
	m.SimNS = time.Since(t1).Nanoseconds()
	return m, tier, nil
}
