package analysis

import "repro/internal/ir"

// BlockLiveness answers exact liveness queries for one block, the seed
// of a hyperblock under construction, while merges rewrite that
// block's body and out-edges in place. It is built once from the
// whole-function solution of the committed function; a query then
// costs the seed's instructions and one set operation per successor.
//
// Why the answer is exact. Let R be the blocks that can reach the seed
// when the solver is built. A path's first arrival at the seed uses no
// edge out of the seed, so rewriting the seed's out-edges does not
// change R. Neither does deleting a block whose only predecessor is
// the seed (a plain merge: every path through it has already arrived
// at the seed) or a block no live block reaches (RemoveUnreachable).
// Liveness at a block depends only on the blocks it reaches. A
// successor of the seed outside R never reaches the seed, so nothing
// it reaches has changed, and its live-in set is still the one
// computed at build time.
//
// A successor t inside R reaches the seed, and no block it reaches
// before arriving there has changed. Liveness is distributive, so as
// a function of the seed's live-in set X, t's live-in set is
// K[t] ∪ (X ∩ P[t]): K[t] is its live-in set were X empty, and P[t]
// holds the registers some path from t to the seed leaves undefined.
// Both are fixed while the hyperblock grows; they are solved once,
// over the blocks of R the seed's successors reach. With K and P the
// unions over the seed's successors (a self-loop adds every register
// to P), the seed's live-out set is the least solution of
// out = K ∪ ((UE ∪ (out − Kill)) ∩ P), which is
// K ∪ ((UE ∪ (K − Kill)) ∩ P) — what ComputeLiveness returns for the
// seed. Registers created after the build are defined only in the
// seed, so every path leaves them undefined: P covers them for every
// block of R.
//
// Adding blocks (a basic-block split) can change R, so it needs a new
// solver; Solve panics if the function has gained blocks since.
type BlockLiveness struct {
	f     *ir.Function
	seed  *ir.Block
	base  *liveSets
	bound int           // f.BlockIDBound() at build time
	words int           // set width at build time
	inR   []bool        // by block ID: the block can reach the seed
	succs [][]*ir.Block // by block ID, at build time
	preds [][]*ir.Block // by block ID, at build time

	// By block ID, for the blocks of R solved so far: K and P above.
	k, p []RegSet

	// Scratch, kept to avoid reallocating.
	sets   RegSet // a query's Kill and P
	region []*ir.Block
	stack  []*ir.Block
	queued []bool // by block ID: on the worklist
	succ   []*ir.Block
	buf    []ir.Reg
}

// newBlockLiveness prepares liveness queries for seed, which must be
// reachable from the entry; base is the liveness of f as it is now.
func newBlockLiveness(f *ir.Function, base *liveSets, seed *ir.Block) *BlockLiveness {
	bound := f.BlockIDBound()
	succs := succLists(f)
	preds := predLists(f.Blocks, succs, bound)
	inR := make([]bool, bound)
	inR[seed.ID] = true
	stack := []*ir.Block{seed}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[b.ID] {
			if !inR[p.ID] {
				inR[p.ID] = true
				stack = append(stack, p)
			}
		}
	}
	return &BlockLiveness{f: f, seed: seed, base: base, bound: bound,
		words: (f.NumRegs() + 63) / 64, inR: inR, succs: succs, preds: preds,
		k: make([]RegSet, bound), p: make([]RegSet, bound), queued: make([]bool, bound)}
}

// Seed returns the block the solver answers for.
func (l *BlockLiveness) Seed() *ir.Block { return l.seed }

// Solve returns the seed's live-out set and upward-exposed uses in the
// function as it is now: exactly ComputeLiveness(f).Out[seed] and
// .UEVar[seed]. Both sets are fresh copies the caller may keep.
func (l *BlockLiveness) Solve() (out, ue RegSet) {
	if l.f.BlockIDBound() != l.bound {
		panic("analysis: BlockLiveness queried after blocks were added; build a new one")
	}
	words := (l.f.NumRegs() + 63) / 64
	fresh := make(RegSet, 2*words)
	out, ue = fresh[:words:words], fresh[words:]
	if cap(l.sets) < 2*words {
		l.sets = make(RegSet, 2*words)
	}
	l.sets = l.sets[:2*words]
	clear(l.sets)
	kill, P := l.sets[:words], l.sets[words:]
	l.buf = summarize(l.seed, ue, kill, l.buf)

	// K and P over the seed's successors; out holds K.
	l.succ = l.seed.SuccsAppend(l.succ[:0])
	for _, t := range l.succ {
		switch {
		case t == l.seed:
			fill(P)
		case l.inR[t.ID]:
			l.solveR(t)
			out.UnionWith(l.k[t.ID])
			P.UnionWith(l.p[t.ID])
			if words > l.words {
				fill(P[l.words:]) // registers created since the build
			}
		default:
			in := l.base.in[t.ID]
			if in == nil {
				panic(notInBase(t))
			}
			out.UnionWith(in)
		}
	}
	// out = K ∪ ((UE ∪ (K − Kill)) ∩ P)
	for i, k := range out {
		out[i] = k | ((ue[i] | k&^kill[i]) & P[i])
	}
	return out, ue
}

// solveR computes K and P for t and every block of R it reaches
// before the seed, unless they are known already.
func (l *BlockLiveness) solveR(t *ir.Block) {
	if l.k[t.ID] != nil {
		return
	}
	// The blocks to solve: those of R that t reaches without passing
	// the seed, minus the ones solved by earlier queries (whatever
	// those reach is solved too).
	region := append(l.region[:0], t)
	l.queued[t.ID] = true
	for i := 0; i < len(region); i++ {
		for _, u := range l.succs[region[i].ID] {
			if u != l.seed && l.inR[u.ID] && l.k[u.ID] == nil && !l.queued[u.ID] {
				l.queued[u.ID] = true
				region = append(region, u)
			}
		}
	}
	w := l.words
	arena := make([]uint64, 2*w*(len(region)+1))
	outK, outP := RegSet(arena[:w]), RegSet(arena[w:2*w])
	arena = arena[2*w:]
	for _, b := range region {
		l.k[b.ID], l.p[b.ID] = arena[:w:w], arena[w:2*w:2*w]
		arena = arena[2*w:]
	}
	// Worklist to the least fixpoint, starting from the blocks found
	// last; a block whose sets grow requeues its predecessors in the
	// region.
	stack := append(l.stack[:0], region...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l.queued[b.ID] = false
		clear(outK)
		clear(outP)
		for _, u := range l.succs[b.ID] {
			switch {
			case u == l.seed:
				fill(outP)
			case l.inR[u.ID]:
				outK.UnionWith(l.k[u.ID])
				outP.UnionWith(l.p[u.ID])
			default:
				outK.UnionWith(l.base.in[u.ID])
			}
		}
		ue, kill := l.base.ue[b.ID], l.base.kill[b.ID]
		k, p := l.k[b.ID], l.p[b.ID]
		grew := false
		for i := range k {
			nk := k[i] | ue[i] | outK[i]&^kill[i]
			np := p[i] | outP[i]&^kill[i]
			if nk != k[i] || np != p[i] {
				k[i], p[i] = nk, np
				grew = true
			}
		}
		if !grew {
			continue
		}
		for _, q := range l.preds[b.ID] {
			// Solved blocks outside the region never reach it, so every
			// predecessor with sets is in the region.
			if q != l.seed && l.k[q.ID] != nil && !l.queued[q.ID] {
				l.queued[q.ID] = true
				stack = append(stack, q)
			}
		}
	}
	l.region, l.stack = region[:0], stack
}

// fill adds every register the words of s can hold.
func fill(s RegSet) {
	for i := range s {
		s[i] = ^uint64(0)
	}
}

func notInBase(b *ir.Block) string {
	return "analysis: BlockLiveness reached " + b.String() + ", which the base solution does not cover"
}
