// Package core implements the paper's primary contribution:
// convergent hyperblock formation (Maher, Smith, Burger, McKinley —
// MICRO 2006, Figure 5).
//
// The algorithm grows each hyperblock incrementally: starting from a
// seed basic block it repeatedly selects a successor (via a
// pluggable block-selection policy), attempts the merge —
// if-converting the successor, optionally running scalar
// optimizations, normalizing outputs, and checking the TRIPS
// structural constraints — and commits the merge only if the
// resulting block is legal; a rejected attempt is rolled back. Code
// duplication is applied as needed:
//
//   - tail duplication removes side entrances to acyclic regions;
//   - head duplication generalizes it to back edges, implementing
//     loop peeling (merging a loop header into a predecessor outside
//     the loop) and loop unrolling (merging a block with itself along
//     its own back edge);
//   - unrolling appends copies of the loop's saved original body one
//     iteration at a time, avoiding the powers-of-two limitation.
package core

import (
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/trips"
)

// Stats are the static formation counters the paper reports per
// benchmark as m/t/u/p (Table 1).
type Stats struct {
	// Merges counts successful block merges (m).
	Merges int
	// TailDups counts merges that required tail duplication (t).
	TailDups int
	// Unrolls counts loop iterations added by head-duplication
	// unrolling (u).
	Unrolls int
	// Peels counts loop iterations peeled by head duplication (p).
	Peels int
	// Attempts and Rejects count trial merges and constraint
	// rejections (not in the paper's tables; useful diagnostics).
	Attempts int
	Rejects  int
	// ChainHits/ChainMisses count unroll merges that did / did not
	// chain through the previous layer's speculative renames.
	ChainHits   int
	ChainMisses int
	// Splits counts §9 basic-block splits (SplitOversize extension).
	Splits int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Merges += other.Merges
	s.TailDups += other.TailDups
	s.Unrolls += other.Unrolls
	s.Peels += other.Peels
	s.Attempts += other.Attempts
	s.Rejects += other.Rejects
	s.ChainHits += other.ChainHits
	s.ChainMisses += other.ChainMisses
	s.Splits += other.Splits
}

// Context is the information a block-selection policy may consult.
type Context struct {
	F     *ir.Function
	HB    *ir.Block
	Prof  *profile.FuncProfile
	Loops *analysis.LoopForest
	Cons  trips.Constraints
}

// Policy selects which candidate successor to merge next (the paper's
// SelectBest, §5). Implementations live in internal/policy.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Prepare is called once before expanding each seed hyperblock;
	// path-based (VLIW) policies use it to run their prepass.
	Prepare(ctx *Context)
	// Select returns the index into cands of the candidate to try
	// next, or -1 to stop expanding this hyperblock. The selected
	// candidate is removed from the worklist by the caller.
	Select(ctx *Context, cands []*ir.Block) int
}

// Config controls a formation run.
type Config struct {
	// Cons are the structural constraints each hyperblock must obey.
	Cons trips.Constraints
	// Policy picks merge candidates; nil defaults to greedy
	// first-candidate (breadth-first) order.
	Policy Policy
	// IterOpt interleaves scalar optimization with merging (the
	// paper's merged "(…O)" phases). When false, blocks are only
	// optimized by discrete phases outside formation.
	IterOpt bool
	// HeadDup enables head duplication (peeling and unrolling).
	// When false the algorithm degenerates to classical incremental
	// if-conversion with tail duplication only.
	HeadDup bool
	// Prof supplies profile data to the policy; may be nil.
	Prof *profile.FuncProfile
	// MaxUnrollPerLoop bounds head-duplication unrolling of one
	// header (default 64).
	MaxUnrollPerLoop int
	// MaxMergesPerBlock bounds total merges into one hyperblock
	// (default 256) as a convergence backstop.
	MaxMergesPerBlock int
	// MaxRepeatPerCandidate bounds repeated merges of the same
	// candidate block into the same hyperblock (repeated peeling),
	// default 64.
	MaxRepeatPerCandidate int
	// SplitOversize enables the paper's §9 "basic block splitting"
	// extension: when a candidate is rejected because it does not
	// fit, and the candidate is itself large, it is split in two and
	// the first half retried.
	SplitOversize bool
	// NoChain disables cross-layer speculative-rename chaining
	// (ablation knob; formation stays correct, merged loop-carried
	// values just wait for their predicated commits).
	NoChain bool
	// Checkpoint, when non-nil, is polled between merge attempts and
	// between seed expansions: the first non-nil error it returns
	// aborts formation cooperatively (the error propagates out of
	// FormFunction/FormProgram). Drivers set it to ctx.Err so a
	// deadline or request cancellation stops a long convergence loop
	// instead of relying on goroutine abandonment. It is excluded
	// from content-addressed cache keys (it never affects the result
	// of a completed formation).
	Checkpoint func() error
}

func (c Config) withDefaults() Config {
	if c.Cons.MaxInstrs == 0 {
		c.Cons = trips.Default()
	}
	if c.MaxUnrollPerLoop == 0 {
		c.MaxUnrollPerLoop = 64
	}
	if c.MaxMergesPerBlock == 0 {
		c.MaxMergesPerBlock = 256
	}
	if c.MaxRepeatPerCandidate == 0 {
		c.MaxRepeatPerCandidate = 64
	}
	return c
}

// savedBody is a detached snapshot of a loop body used for
// incremental unrolling: the block's instructions plus branch targets
// recorded as stable block IDs (resolved against the working function
// when the snapshot is materialized).
type savedBody struct {
	instrs  []*ir.Instr // detached clones; Br targets are nil
	targets []int       // block ID per branch, in branch order
}

func snapshotBody(b *ir.Block) *savedBody {
	s := &savedBody{}
	for _, in := range b.Instrs {
		cp := in.Clone()
		if cp.Op == ir.OpBr {
			s.targets = append(s.targets, cp.Target.ID)
			cp.Target = nil
		}
		s.instrs = append(s.instrs, cp)
	}
	return s
}

// materialize returns fresh instruction clones with branch targets
// resolved in f; ok is false if a target block no longer exists.
func (s *savedBody) materialize(f *ir.Function) ([]*ir.Instr, bool) {
	out := make([]*ir.Instr, len(s.instrs))
	ti := 0
	for i, in := range s.instrs {
		cp := in.Clone()
		if cp.Op == ir.OpBr {
			t := f.BlockByID(s.targets[ti])
			ti++
			if t == nil {
				return nil, false
			}
			cp.Target = t
		}
		out[i] = cp
	}
	return out, true
}
