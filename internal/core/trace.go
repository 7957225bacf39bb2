package core

import (
	"hash/fnv"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/trips"
)

// This file implements symbolic formation skeletons: a recording of
// the convergent formation loop's decision sequence that can be
// replayed against a fresh pre-formation clone far more cheaply than
// re-running the greedy search. The trace is symbolic in the
// request-bound parameters — block capacity limits (MaxInstrs,
// MaxMemOps, per-bank read/write budgets) are not baked in; instead
// each decision carries the structural precondition that justified
// it, and replay re-checks exactly those preconditions against the
// concrete parameters. Any miss aborts the whole function's replay
// and falls back to the full greedy run, so replay is never less
// correct than formation, only faster.
//
// What makes replay cheap:
//   - rejected merge attempts are not re-executed: the recorded block
//     shape is re-checked against the concrete constraints (a few
//     integer compares) instead of re-running if-convert + liveness +
//     measure;
//   - accepted merges need no rollback snapshot (greedy needs one
//     because an attempt may fail; replay already knows the outcome,
//     and if the concrete constraints reject it after all, the
//     corrupted clone is discarded and greedy runs from the pristine
//     snapshot);
//   - liveness is never solved: each committed merge carries the
//     merged block's recorded live-out sets and final measured shape.
//     Replay reproduces the recorded run's committed states
//     instruction for instruction, so the recorded sets are exactly
//     what ComputeLiveness would return;
//   - no candidate worklists, policy calls, loop forests, or RPO
//     rescans: the decision list is the worklist;
//   - the per-merge IR verifier is skipped (replay output is
//     still verified once by GuardFunction, like any formed function).

// Decision kinds (Decision.Kind).
const (
	DecMerge  = "m" // committed merge
	DecReject = "r" // rejected merge attempt
	DecSplit  = "s" // §9 oversize candidate split
)

// Reject reasons (Decision.Reject).
const (
	RejectCons = "cons" // structural constraint check failed
	RejectMat  = "mat"  // unroll snapshot no longer materializes
	RejectBr   = "br"   // converted branch not found in the hyperblock
)

// Merge kind names (Decision.Merge), matching mergeKind.
const (
	KindPlain  = "plain"
	KindTail   = "tail"
	KindPeel   = "peel"
	KindUnroll = "unroll"
)

// Decision is one recorded step of a hyperblock's expansion.
type Decision struct {
	Kind string `json:"k"`
	// Cand is the candidate block's stable ID.
	Cand int `json:"c"`
	// Merge is the recorded merge classification (merge decisions;
	// also set on rejects so unroll bookkeeping replays faithfully).
	Merge string `json:"m,omitempty"`
	// Reject is the reject reason (reject decisions only).
	Reject string `json:"rj,omitempty"`
	// Shape is the merged block's measured resources — at a
	// constraint reject, or after normalization on a committed merge.
	// Replay re-checks this shape against the concrete constraints:
	// for a reject, still failing ⇒ the greedy run would have made
	// the same decision; for a merge, still passing ⇒ the merge
	// stands without re-measuring. Either check flipping is a
	// precondition miss and replay falls back. The shape depends on
	// Constraints only through FanoutFactor, which is part of the
	// skeleton cache key, so the recorded shape is exact for every
	// instantiation the trace is consulted for.
	Shape *trips.BlockStats `json:"sh,omitempty"`
	// Out1 and Out2 are the merged block's live-out registers after
	// combine and after iterative optimization (sorted), recorded on
	// committed merges. They feed OptimizeBlock and NormalizeOutputs
	// at replay in place of the whole-function liveness fixpoint; a
	// nil slice with Shape set means the set was genuinely empty.
	Out1 []ir.Reg `json:"o1,omitempty"`
	Out2 []ir.Reg `json:"o2,omitempty"`
	// ChainHit/ChainMiss replay the rename-chain counters that a
	// constraint-rejected attempt bumped before its check ran.
	ChainHit  bool `json:"ch,omitempty"`
	ChainMiss bool `json:"cm,omitempty"`
}

// SeedTrace is the decision sequence of one ExpandBlock pass. Seeds
// whose expansion recorded no decisions are omitted from the trace:
// they neither mutate the function nor mark it Hyper.
type SeedTrace struct {
	Seed      int        `json:"seed"`
	Decisions []Decision `json:"d,omitempty"`
}

// FuncTrace is the recorded formation of one function.
type FuncTrace struct {
	// Fingerprint is a structural hash of the pre-formation function.
	// A mismatch at replay means the skeleton was recorded against
	// different input IR (stale cache entry, schema drift) and replay
	// must not proceed.
	Fingerprint uint64      `json:"fp"`
	Seeds       []SeedTrace `json:"seeds,omitempty"`
}

// ProgramTrace is a replayable skeleton of FormProgram's decisions,
// keyed by function name. Functions that degraded during recording
// have no entry and fall back to greedy formation at replay (which
// deterministically degrades the same way).
type ProgramTrace struct {
	Funcs map[string]*FuncTrace `json:"funcs"`
}

// Decisions returns the total decision count, a cheap size proxy.
func (t *ProgramTrace) Decisions() int {
	n := 0
	for _, ft := range t.Funcs {
		for i := range ft.Seeds {
			n += len(ft.Seeds[i].Decisions)
		}
	}
	return n
}

// FingerprintFunction hashes the structural identity of f: block IDs
// and order, every instruction field, and branch targets. Two
// functions with equal fingerprints are (up to hash collision)
// structurally identical, so a decision trace recorded against one
// replays against the other.
func FingerprintFunction(f *ir.Function) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 64)
	w8 := func(v int64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	w8(int64(len(f.Params)))
	for _, b := range f.Blocks {
		w8(int64(b.ID))
		w8(int64(len(b.Instrs)))
		for _, in := range b.Instrs {
			w8(int64(in.Op))
			w8(int64(in.Dst))
			w8(int64(in.A))
			w8(int64(in.B))
			w8(in.Imm)
			w8(int64(in.Pred))
			if in.PredSense {
				w8(1)
			} else {
				w8(0)
			}
			if in.Target != nil {
				w8(int64(in.Target.ID))
			} else {
				w8(-1)
			}
			w8(int64(in.BrID))
			w8(int64(len(in.Callee)))
			buf = append(buf, in.Callee...)
			for _, a := range in.Args {
				w8(int64(a))
			}
			if len(buf) > 4096 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// traceRecorder accumulates a FuncTrace while the greedy formation
// loop runs. cur indexes the open seed's entry in ft.Seeds plus one;
// zero means the current seed has recorded nothing yet (its entry is
// created on first decision so empty seeds never hit the trace).
type traceRecorder struct {
	ft   *FuncTrace
	seed int
	cur  int
}

// beginSeed opens a new (lazily materialized) seed scope.
func (fo *Former) beginSeed(id int) {
	if fo.rec != nil {
		fo.rec.seed, fo.rec.cur = id, 0
	}
}

// record appends d to the open seed's decision list.
func (fo *Former) record(d Decision) {
	r := fo.rec
	if r == nil {
		return
	}
	if r.cur == 0 {
		r.ft.Seeds = append(r.ft.Seeds, SeedTrace{Seed: r.seed})
		r.cur = len(r.ft.Seeds)
	}
	st := &r.ft.Seeds[r.cur-1]
	st.Decisions = append(st.Decisions, d)
}

func (k mergeKind) name() string {
	switch k {
	case mergePlain:
		return KindPlain
	case mergeTail:
		return KindTail
	case mergePeel:
		return KindPeel
	default:
		return KindUnroll
	}
}

func mergeKindByName(s string) (mergeKind, bool) {
	switch s {
	case KindPlain:
		return mergePlain, true
	case KindTail:
		return mergeTail, true
	case KindPeel:
		return mergePeel, true
	case KindUnroll:
		return mergeUnroll, true
	}
	return 0, false
}

// FormFunctionTrace is FormFunction with decision recording: it
// additionally returns the replayable trace of the run. The trace is
// nil when formation was canceled mid-run.
func FormFunctionTrace(f *ir.Function, cfg Config) (*ir.Function, Stats, *FuncTrace, error) {
	return formFunction(f, cfg, true)
}

// ReplayStats counts skeleton replay outcomes across one program.
type ReplayStats struct {
	// Replayed counts functions formed purely by trace replay.
	Replayed int `json:"replayed"`
	// Fallbacks counts functions where a precondition miss (or a
	// missing/mismatched trace) forced a full greedy run.
	Fallbacks int `json:"fallbacks"`
}

// ReplayProgram is FormProgram driven by a recorded trace: each
// function replays its decision sequence against the concrete
// parameters in cfg, falling back to the full greedy FormFunction on
// any precondition miss. The formed program, statistics, and
// degradations are indistinguishable from a greedy run with the same
// cfg; only the cost differs.
func ReplayProgram(p *ir.Program, cfg Config, prof *profile.Profile, tr *ProgramTrace) (Stats, []Degradation, ReplayStats, error) {
	var total Stats
	var degraded []Degradation
	var rs ReplayStats
	for _, name := range p.FuncOrder {
		c := cfg
		if prof != nil {
			c.Prof = prof.Get(name)
		}
		var st Stats
		var cerr error
		fn := p.Funcs[name]
		var ft *FuncTrace
		if tr != nil {
			ft = tr.Funcs[name]
		}
		fell := false
		nf, deg := GuardFunction(fn, "formation", func(f *ir.Function) *ir.Function {
			var formed *ir.Function
			formed, st, fell, cerr = replayOrForm(f, c, ft)
			return formed
		})
		if cerr != nil {
			return total, degraded, rs, cerr
		}
		if fell {
			rs.Fallbacks++
		} else {
			rs.Replayed++
		}
		if deg != nil {
			degraded = append(degraded, *deg)
			st = Stats{}
		}
		nf.Prog = p
		p.Funcs[name] = nf
		total.Add(st)
	}
	return total, degraded, rs, nil
}

// replayOrForm replays ft against a clone of f, or falls back to the
// greedy FormFunction when ft is absent, stale, or misses a
// precondition. It reports whether the greedy fallback ran.
func replayOrForm(f *ir.Function, cfg Config, ft *FuncTrace) (*ir.Function, Stats, bool, error) {
	if ft == nil || ft.Fingerprint != FingerprintFunction(f) {
		nf, st, err := FormFunction(f, cfg)
		return nf, st, true, err
	}
	// Replay mutates its working clone in place (including partially,
	// when a replayed merge fails the concrete constraint check), so
	// the greedy fallback needs the untouched input. GuardFunction's
	// own snapshot is reserved for panic recovery.
	pristine := ir.CloneFunction(f)
	fo := NewFormer(f, cfg)
	ok := true
	for i := range ft.Seeds {
		if fo.checkpoint() != nil {
			break
		}
		if !fo.replaySeed(&ft.Seeds[i]) {
			ok = false
			break
		}
	}
	if fo.err != nil {
		// Canceled: propagate like FormFunction (caller discards).
		return fo.f, fo.stats, false, fo.err
	}
	if ok {
		return fo.f, fo.stats, false, nil
	}
	nf, st, err := FormFunction(pristine, cfg)
	return nf, st, true, err
}

// replaySeed replays one recorded ExpandBlock pass. It returns false
// on any precondition miss; the working function may then be
// partially mutated and must be discarded by the caller.
func (fo *Former) replaySeed(st *SeedTrace) bool {
	hb := fo.f.BlockByID(st.Seed)
	if hb == nil {
		return false
	}
	merges := 0
	for i := range st.Decisions {
		d := &st.Decisions[i]
		switch d.Kind {
		case DecMerge:
			kind, kok := mergeKindByName(d.Merge)
			s := fo.f.BlockByID(d.Cand)
			if !kok || s == nil || !fo.replayMerge(hb, s, kind, d) {
				return false
			}
			merges++
			if hb = fo.f.BlockByID(st.Seed); hb == nil {
				return false
			}
		case DecReject:
			if !fo.replayReject(hb, d) {
				return false
			}
		case DecSplit:
			s := fo.f.BlockByID(d.Cand)
			if s == nil || s == hb || s.HasCall() ||
				!fo.cfg.SplitOversize ||
				len(s.Instrs) <= fo.cfg.Cons.MaxInstrs/4 {
				return false
			}
			if fo.SplitOversizeCandidate(s) == nil {
				return false
			}
		default:
			return false
		}
	}
	if merges > 0 {
		hb.Hyper = true
	}
	return true
}

// replayReject re-applies a rejected attempt's statistics and
// re-checks its recorded precondition against the concrete
// parameters. A recorded constraint reject whose shape now fits means
// the greedy run would have accepted the merge — that is a
// precondition miss, not a cheaper path.
func (fo *Former) replayReject(hb *ir.Block, d *Decision) bool {
	fo.stats.Attempts++
	switch d.Reject {
	case RejectCons:
		if d.ChainHit {
			fo.stats.ChainHits++
		}
		if d.ChainMiss {
			fo.stats.ChainMisses++
		}
		if d.Shape == nil || fo.cfg.Cons.Check(*d.Shape) == nil {
			return false
		}
		fo.stats.Rejects++
	case RejectMat:
		// The snapshot materializes against structure fully determined
		// by the committed prefix, which replay reproduces exactly; a
		// first-attempt materialize failure is impossible (the
		// snapshot is taken from live blocks), so the snapshot must
		// already exist here.
		if fo.saved[hb.ID] == nil {
			return false
		}
		fo.stats.Rejects++
	case RejectBr:
		// Structural-only reject: Attempts was the sole counter.
	default:
		return false
	}
	// A rejected unroll attempt permanently retires the header as a
	// candidate (tried). Recording only reaches the unroll-snapshot
	// path via a successful earlier unroll or as the attempt that
	// takes the snapshot itself, both reproduced above, so no
	// bookkeeping beyond counters is needed here.
	return true
}

// replayMerge re-executes a recorded committed merge in place on the
// working function. Structural prechecks stand in for the greedy
// loop's classification; the concrete constraint check still runs
// inside mergeExec (against the recorded shape, which is exact for
// this instantiation — see Decision.Shape), so a parameter change
// that invalidates the merge surfaces as a false return (and the
// caller falls back).
func (fo *Former) replayMerge(hb, s *ir.Block, kind mergeKind, d *Decision) bool {
	fo.stats.Attempts++
	switch kind {
	case mergeUnroll:
		if s != hb || !fo.cfg.HeadDup || fo.unrolls[hb.ID] >= fo.cfg.MaxUnrollPerLoop {
			return false
		}
	case mergePlain:
		if s == hb || fo.f.NumPredEdges(s) != 1 {
			return false
		}
	default:
		if s == hb {
			return false
		}
	}
	if kind == mergeUnroll {
		if _, ok := fo.saved[hb.ID]; !ok {
			fo.saved[hb.ID] = snapshotBody(hb)
		}
	}
	// No rollback: on failure the function is corrupt and the caller
	// discards it.
	fo.replay = d
	ok := fo.mergeExec(hb, s, kind, false)
	fo.replay = nil
	return ok
}
