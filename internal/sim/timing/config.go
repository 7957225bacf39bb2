// Package timing implements a cycle-level timing model of an EDGE
// (TRIPS-like) processor core, standing in for the paper's validated
// TRIPS cycle simulator. It is execution-driven: blocks are
// interpreted for their values while every executed instruction is
// scheduled on a dataflow timing model.
//
// The model captures the first-order effects the paper's evaluation
// depends on:
//
//   - per-block fetch/map overhead, so reducing the number of blocks
//     executed directly reduces cycles;
//   - dynamic (dataflow) issue with a bounded issue width: a block
//     commits when all of its outputs are produced, so a long
//     falsely-predicated path does not serialize the block;
//   - predicates are data operands: a predicated instruction cannot
//     execute before its predicate resolves, which is the
//     tail-duplication penalty of §5 (e.g. an induction-variable
//     update that was control-independent becomes data-dependent on
//     a test);
//   - speculative next-block fetch with a history-based predictor and
//     a return-address stack: up to MaxInflight blocks overlap, and a
//     misprediction flushes the speculative work;
//   - a simple direct-mapped data cache and a load-store queue
//     latency.
package timing

// Config parameterizes the core model. The defaults approximate the
// TRIPS prototype's proportions (not its absolute latencies).
type Config struct {
	// IssueWidth is the number of instructions that may begin
	// execution per cycle within a block (TRIPS: 16-wide).
	IssueWidth int
	// MaxInflight is the number of blocks concurrently in flight
	// (TRIPS: 8, seven of them speculative).
	MaxInflight int
	// FetchCycles is the per-block fetch+map latency before any of
	// its instructions may issue. This is the "block overhead" of the
	// paper's §7.3 model.
	FetchCycles int
	// FetchGap is the pipelining interval between consecutive block
	// fetch starts.
	FetchGap int
	// CommitOverhead is the per-block commit cost after all outputs
	// are produced.
	CommitOverhead int
	// MispredictPenalty is the flush/refill cost added after the
	// resolving branch when the next-block prediction was wrong.
	MispredictPenalty int
	// RoutingLat models the operand network hop between a producer
	// and its consumers.
	RoutingLat int
	// LoadLat is the load-hit latency; CacheMissLat is added on a
	// data-cache miss.
	LoadLat      int
	CacheMissLat int
	// CacheLines and CacheLineWords configure the direct-mapped data
	// cache (CacheLines == 0 disables the cache: every access hits).
	CacheLines     int
	CacheLineWords int
	// HistoryLen is the exit-predictor history length in blocks.
	HistoryLen int
	// MaxSteps bounds executed instructions (0 = 500M).
	MaxSteps int64
	// MaxCycles bounds the simulated cycle count: a run whose commit
	// clock passes it aborts with a *StuckError (ErrWatchdog) instead
	// of spinning (0 = DefaultMaxCycles, far above any workload;
	// negative disables the bound).
	MaxCycles int64
	// WatchdogGap is the commit-progress watchdog: if a block's commit
	// lands more than WatchdogGap cycles after the previous commit —
	// no instruction committed for that long — the run aborts with a
	// *StuckError naming the in-flight blocks and the stalled
	// instructions' missing operands (0 = DefaultWatchdogGap; negative
	// disables the watchdog).
	WatchdogGap int64
}

// DefaultMaxCycles and DefaultWatchdogGap are the bounds applied when
// the corresponding Config field is zero. Both sit orders of
// magnitude above anything a legitimate workload produces: the
// longest table runs commit every few thousand cycles and finish
// under a billion.
const (
	DefaultMaxCycles   = 1_000_000_000_000
	DefaultWatchdogGap = 1_000_000
)

// maxCycles returns the effective cycle budget (0 = unlimited).
func (c *Config) maxCycles() int64 {
	if c.MaxCycles == 0 {
		return DefaultMaxCycles
	}
	if c.MaxCycles < 0 {
		return 0
	}
	return c.MaxCycles
}

// watchdogGap returns the effective commit-gap bound (0 = disabled).
func (c *Config) watchdogGap() int64 {
	if c.WatchdogGap == 0 {
		return DefaultWatchdogGap
	}
	if c.WatchdogGap < 0 {
		return 0
	}
	return c.WatchdogGap
}

// DefaultConfig returns the standard model parameters.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        16,
		MaxInflight:       8,
		FetchCycles:       8,
		FetchGap:          4,
		CommitOverhead:    3,
		MispredictPenalty: 12,
		RoutingLat:        1,
		LoadLat:           3,
		CacheMissLat:      14,
		CacheLines:        256,
		CacheLineWords:    4,
		HistoryLen:        6,
	}
}

// latency returns the execution latency of an opcode class.
func (c *Config) latency(class latClass) int64 {
	switch class {
	case latMul:
		return 3
	case latDiv:
		return 12
	default:
		return 1
	}
}

type latClass int

const (
	latSimple latClass = iota
	latMul
	latDiv
)
