package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/trips"
)

// SplitOversizeCandidate implements the paper's §9 basic-block
// splitting extension: split candidate s (in the working function)
// before its first exit so the halves can be merged separately. The
// cut point minimizes the number of values crossing the split
// (cross-block communication costs register resources, §9). Returns
// the new second-half block, or nil if s cannot be split.
func (fo *Former) SplitOversizeCandidate(s *ir.Block) *ir.Block {
	firstExit := len(s.Instrs)
	for i, in := range s.Instrs {
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			firstExit = i
			break
		}
	}
	if firstExit < 4 || len(s.Instrs) < 8 {
		return nil
	}
	// Min-crossing cut as in reverse if-conversion.
	lastDef := map[ir.Reg]int{}
	for i, in := range s.Instrs {
		if d := in.Def(); d.Valid() {
			lastDef[d] = i
		}
	}
	bestCut, bestScore := -1, 1<<30
	var buf []ir.Reg
	for cut := 2; cut < firstExit; cut++ {
		crossing := map[ir.Reg]bool{}
		for i := cut; i < len(s.Instrs); i++ {
			buf = s.Instrs[i].Uses(buf)
			for _, r := range buf {
				if d, ok := lastDef[r]; ok && d < cut {
					crossing[r] = true
				}
			}
		}
		score := len(crossing)*4 + abs(cut-len(s.Instrs)/2)
		if score < bestScore {
			bestCut, bestScore = cut, score
		}
	}
	if bestCut < 2 {
		return nil
	}
	rest := s.Instrs[bestCut:]
	nb := &ir.Block{ID: -1, Name: s.Name + ".split", Fn: fo.f, Hyper: s.Hyper}
	nb.Instrs = append(nb.Instrs, rest...)
	fo.f.AdoptBlock(nb)
	s.Instrs = append(s.Instrs[:bestCut:bestCut], &ir.Instr{Op: ir.OpBr,
		Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Pred: ir.NoReg, Target: nb})
	fo.f.MarkDirty() // s.Instrs rewritten in place above
	fo.live = nil    // the new block can change what reaches the seed
	fo.stats.Splits++
	return nb
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// mergeKind classifies a successful merge per Figure 5.
type mergeKind int

const (
	mergePlain  mergeKind = iota // single predecessor: no duplication
	mergeTail                    // tail duplication
	mergePeel                    // head duplication implementing peeling
	mergeUnroll                  // head duplication implementing unrolling
)

// Former runs convergent hyperblock formation over one function.
type Former struct {
	cfg   Config
	f     *ir.Function
	stats Stats
	// saved holds per-loop-header snapshots for incremental
	// unrolling, keyed by block ID.
	saved map[int]*savedBody
	// unrolls counts unroll iterations per header ID.
	unrolls map[int]int
	// pending chains speculative renames across merge layers of the
	// same hyperblock (see combine), keyed by block ID and then by
	// the identity (BrID) of the branch the renames are valid along:
	// a branch appended by merge layer k fires only when layer k's
	// merge predicate held, and the block's exits are mutually
	// exclusive, so converting that branch later may read layer k's
	// speculative values directly.
	pending map[int]map[int32]map[ir.Reg]ir.Reg
	// cache memoizes RPO/dominators/loops/liveness against the working
	// function's mutation version, so the convergence loop only
	// recomputes analyses after a committed change (a rolled-back
	// attempt restores the version).
	cache analysis.Cache
	// live answers the merged block's liveness queries for the
	// hyperblock being grown; nil until its first merge attempt.
	live *analysis.BlockLiveness
	// undo is the rollback state of the current merge attempt.
	undo blockUndo
	// rec, when non-nil, records every decision for skeleton replay.
	rec *traceRecorder
	// replay, when non-nil, is the committed-merge decision mergeExec
	// is currently replaying; its recorded live-out sets and shape
	// stand in for the per-merge liveness fixpoints.
	replay *Decision
	// lastMerge carries the liveness/shape data mergeExec captured for
	// the most recent successful merge, for MergeBlocks to attach to
	// the recorded decision (recording runs only).
	lastMerge struct {
		out1, out2 []ir.Reg
		shape      trips.BlockStats
	}
	// err latches the first Config.Checkpoint error; once set, the
	// expansion loops stop merging and the error propagates out of
	// FormFunction.
	err error
}

// NewFormer creates a Former for f with the given configuration. The
// function is taken over by the former, which edits it in place;
// Result returns it.
func NewFormer(f *ir.Function, cfg Config) *Former {
	return &Former{
		cfg:     cfg.withDefaults(),
		f:       f,
		saved:   map[int]*savedBody{},
		unrolls: map[int]int{},
		pending: map[int]map[int32]map[ir.Reg]ir.Reg{},
	}
}

// Result returns the working function.
func (fo *Former) Result() *ir.Function { return fo.f }

// Err returns the first checkpoint (cancellation) error observed, or
// nil while formation may continue.
func (fo *Former) Err() error { return fo.err }

// checkpoint polls Config.Checkpoint and latches its first error.
func (fo *Former) checkpoint() error {
	if fo.err == nil && fo.cfg.Checkpoint != nil {
		if err := fo.cfg.Checkpoint(); err != nil {
			fo.err = fmt.Errorf("core: formation canceled: %w", err)
		}
	}
	return fo.err
}

// Stats returns the accumulated formation statistics.
func (fo *Former) Stats() Stats { return fo.stats }

// LegalMerge reports whether merging successor s into hb may be
// attempted (the paper's LegalMerge, Figure 5 line 5). It rejects:
// blocks containing calls (calls terminate TRIPS blocks), candidates
// that are not (unique-branch) successors, self-merges without head
// duplication or beyond the unroll budget, and loop-header merges
// (peeling) when head duplication is disabled.
func (fo *Former) LegalMerge(hb, s *ir.Block, loops *analysis.LoopForest) bool {
	if hb.HasCall() || s.HasCall() {
		return false
	}
	// s must actually be a successor. Parallel branches to s are
	// fine: each merge if-converts one of them (one side entrance at
	// a time), and s stays a candidate for the rest.
	n := 0
	for _, in := range hb.Instrs {
		if in.Op == ir.OpBr && in.Target == s {
			n++
		}
	}
	if n == 0 {
		return false
	}
	if s == hb {
		return fo.cfg.HeadDup && fo.unrolls[hb.ID] < fo.cfg.MaxUnrollPerLoop
	}
	if loops.IsHeader(s) && !loops.IsBackEdge(hb, s) && !fo.cfg.HeadDup {
		return false // peeling requires head duplication
	}
	return true
}

// MergeBlocks attempts to merge s into hb (the paper's MergeBlocks,
// Figure 5). The attempt runs in place on the working function: before
// the constraint check it changes only hb's instructions and the
// function's register and branch-ID counters, so MergeBlocks snapshots
// exactly those and a rejected attempt restores them, leaving the
// function byte-identical — the paper's scratch space, without
// copying the function. MergeBlocks returns true if the optimized,
// normalized block satisfies the structural constraints and the merge
// was committed.
func (fo *Former) MergeBlocks(hb, s *ir.Block, loops *analysis.LoopForest) bool {
	fo.stats.Attempts++

	// Classify the merge up front.
	var kind mergeKind
	switch {
	case s == hb:
		kind = mergeUnroll
	case fo.f.NumPredEdges(s) == 1:
		kind = mergePlain
	case loops.IsHeader(s) && !loops.IsBackEdge(hb, s):
		kind = mergePeel
	default:
		kind = mergeTail
	}

	// Unrolling works from the loop's saved original body so that
	// iterations append one at a time (Figure 4 discussion). The
	// snapshot is taken the first time the header is unrolled.
	if kind == mergeUnroll {
		if _, ok := fo.saved[hb.ID]; !ok {
			fo.saved[hb.ID] = snapshotBody(hb)
		}
	}

	// 1. Snapshot what the attempt may change.
	fo.undo.save(fo.f, hb)
	if !fo.mergeExec(hb, s, kind, true) {
		fo.undo.restore(fo.f, hb)
		return false
	}
	d := Decision{Kind: DecMerge, Cand: s.ID, Merge: kind.name()}
	if fo.rec != nil {
		sh := fo.lastMerge.shape
		d.Shape = &sh
		d.Out1, d.Out2 = fo.lastMerge.out1, fo.lastMerge.out2
	}
	fo.record(d)
	return true
}

// blockUndo is the rollback state of one in-place merge attempt: the
// function's counters and the merged block's instructions. combine and
// opt.OptimizeBlock rewrite instructions in place, so it keeps each
// instruction's contents, argument lists included, not just the
// pointers. The buffers are reused across attempts.
type blockUndo struct {
	mark ir.Mark
	ptrs []*ir.Instr
	vals []ir.Instr
	args []ir.Reg
}

func (u *blockUndo) save(f *ir.Function, b *ir.Block) {
	u.mark = f.Mark()
	u.ptrs = append(u.ptrs[:0], b.Instrs...)
	u.vals, u.args = u.vals[:0], u.args[:0]
	for _, in := range b.Instrs {
		u.vals = append(u.vals, *in)
		u.args = append(u.args, in.Args...)
	}
}

func (u *blockUndo) restore(f *ir.Function, b *ir.Block) {
	args := u.args
	for i, in := range u.ptrs {
		*in = u.vals[i]
		args = args[copy(in.Args, args):]
	}
	b.Instrs = append(b.Instrs[:0], u.ptrs...)
	f.Rollback(u.mark)
}

// mergeExec merges s into hb on the working function and commits the
// merge on success. Greedy formation (MergeBlocks) rolls a failed
// attempt back; skeleton replay already knows the outcome, and the
// caller discards the function when the concrete constraints disagree
// with the recorded decision. verify gates the per-merge IR check;
// replay relies on GuardFunction's final verify instead.
func (fo *Former) mergeExec(hb, s *ir.Block, kind mergeKind, verify bool) bool {
	f := fo.f
	rd := fo.replay
	if rd != nil && rd.Shape == nil {
		rd = nil // trace predates per-merge liveness recording
	}
	if rd == nil && (fo.live == nil || fo.live.Seed() != hb) {
		// Built from the committed function, before this attempt
		// rewrites hb, and kept for the rest of the hyperblock
		// (ExpandBlock and splits reset it).
		fo.live = analysis.NewBlockLiveness(f, fo.cache.Liveness(f), hb)
	}

	// 2. Locate the branch being if-converted.
	brIdx := -1
	for i, in := range hb.Instrs {
		if in.Op == ir.OpBr && in.Target == s {
			brIdx = i
			break
		}
	}
	if brIdx < 0 {
		fo.record(Decision{Kind: DecReject, Cand: s.ID, Merge: kind.name(), Reject: RejectBr})
		return false
	}

	// 3. Build the body to merge.
	var body []*ir.Instr
	switch kind {
	case mergeUnroll:
		var ok bool
		body, ok = fo.saved[hb.ID].materialize(f)
		if !ok {
			fo.stats.Rejects++
			fo.record(Decision{Kind: DecReject, Cand: s.ID, Merge: kind.name(), Reject: RejectMat})
			return false
		}
	default:
		cl := s.Clone(s.Name + ".dup")
		body = cl.Instrs
	}

	// 4. Combine (if-conversion with predicate conjunction and
	// speculation). When the branch being converted is predicated on
	// a register created by an earlier merge layer, that layer's
	// speculative renames are still valid on this path and seed the
	// rename map, chaining loop-carried values across layers without
	// waiting for their predicated commits. Renamed registers whose
	// definitions were optimized away are dropped.
	var initRename map[ir.Reg]ir.Reg
	chainHit, chainMiss := false, false
	br := hb.Instrs[brIdx]
	if br.BrID != 0 && !fo.cfg.NoChain {
		if pr := fo.pending[hb.ID][br.BrID]; pr != nil {
			defined := map[ir.Reg]bool{}
			for _, in := range hb.Instrs {
				if d := in.Def(); d.Valid() {
					defined[d] = true
				}
			}
			initRename = map[ir.Reg]ir.Reg{}
			for orig, fresh := range pr {
				if defined[fresh] {
					initRename[orig] = fresh
				}
			}
			fo.stats.ChainHits++
			chainHit = true
		} else {
			fo.stats.ChainMisses++
			chainMiss = true
		}
	}
	brIDFloor := f.NewBrID() // all IDs assigned by this combine exceed this
	_, outRename := combine(f, hb, brIdx, body, initRename)

	// 5. Optimize the merged block (when iterative optimization is
	// enabled) and normalize its outputs. Both consume only the merged
	// block's live-out set. Greedy solves it block-locally (see
	// analysis.BlockLiveness: exactly what ComputeLiveness would
	// return, from one whole-function fixpoint per hyperblock);
	// replay substitutes the sets recorded with the decision — the
	// working function matches the recorded run's committed state
	// instruction for instruction, so they are exact too.
	var out1 analysis.RegSet
	if rd != nil {
		out1 = regSetFrom(f.NumRegs(), rd.Out1)
	} else {
		out1, _ = fo.solveLive(hb)
	}
	out2 := out1
	if fo.cfg.IterOpt {
		opt.OptimizeBlock(f, hb, out1)
		if rd != nil {
			out2 = regSetFrom(f.NumRegs(), rd.Out2)
		} else {
			out2, _ = fo.solveLive(hb)
		}
	}
	trips.NormalizeOutputs(hb, &analysis.Liveness{
		Out: map[*ir.Block]analysis.RegSet{hb: out2}})

	// 6. Constraint check: reject the merge if the block no longer
	// fits. The measured shape is recorded (on merges and rejects
	// alike) so skeleton replay can re-check this exact precondition
	// against other capacity limits without redoing the measurement.
	var shape trips.BlockStats
	if rd != nil {
		shape = *rd.Shape
	} else {
		out3, ue := fo.solveLive(hb)
		shape = trips.MeasureWithFanout(hb, &analysis.Liveness{
			Out:   map[*ir.Block]analysis.RegSet{hb: out3},
			UEVar: map[*ir.Block]analysis.RegSet{hb: ue}}, fo.cfg.Cons)
	}
	if err := fo.cfg.Cons.Check(shape); err != nil {
		fo.stats.Rejects++
		fo.record(Decision{Kind: DecReject, Cand: s.ID, Merge: kind.name(),
			Reject: RejectCons, Shape: &shape, ChainHit: chainHit, ChainMiss: chainMiss})
		return false
	}
	if fo.rec != nil {
		fo.lastMerge.out1 = out1.AppendMembers(nil)
		fo.lastMerge.out2 = out2.AppendMembers(nil)
		fo.lastMerge.shape = shape
	}

	// 7. Commit: transform the CFG.
	if kind == mergePlain {
		f.RemoveBlock(s)
	}
	f.RemoveUnreachable()
	if verify {
		if err := ir.Verify(f); err != nil {
			// A malformed merge indicates a bug; fail loudly
			// (GuardFunction rolls the function back) rather than
			// carry on with corrupt IR.
			panic(fmt.Sprintf("core: merge produced invalid IR: %v", err))
		}
	}
	fo.stats.Merges++
	switch kind {
	case mergeTail:
		fo.stats.TailDups++
	case mergePeel:
		fo.stats.Peels++
	case mergeUnroll:
		fo.stats.Unrolls++
		fo.unrolls[hb.ID]++
	}

	// Record this layer's speculative renames under every surviving
	// branch this merge appended (identified by fresh BrIDs): such a
	// branch fires only when this layer's merge predicate held.
	if len(outRename) > 0 {
		byBr := fo.pending[hb.ID]
		if byBr == nil {
			byBr = map[int32]map[ir.Reg]ir.Reg{}
			fo.pending[hb.ID] = byBr
		}
		for _, in := range hb.Instrs {
			if in.Op == ir.OpBr && in.BrID > brIDFloor {
				byBr[in.BrID] = outRename
			}
		}
	}
	// The converted branch is gone; drop its entry.
	if br.BrID != 0 {
		delete(fo.pending[hb.ID], br.BrID)
	}
	return true
}

// testHookLiveness, when a test sets it, sees every block-local
// liveness answer greedy formation uses.
var testHookLiveness func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet)

// solveLive answers a liveness query for the hyperblock being grown.
func (fo *Former) solveLive(hb *ir.Block) (out, ue analysis.RegSet) {
	out, ue = fo.live.Solve()
	if testHookLiveness != nil {
		testHookLiveness(fo.f, hb, out, ue)
	}
	return out, ue
}

// regSetFrom rebuilds a RegSet from a recorded member list. Sized to
// cover both the function's registers and every recorded member, so a
// decoded trace can never index out of bounds.
func regSetFrom(n int, regs []ir.Reg) analysis.RegSet {
	for _, r := range regs {
		if int(r) >= n {
			n = int(r) + 1
		}
	}
	s := analysis.NewRegSet(n)
	for _, r := range regs {
		s.Add(r)
	}
	return s
}
