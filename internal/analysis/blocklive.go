package analysis

import "repro/internal/ir"

// BlockLiveness answers exact liveness queries for one block, the seed
// of a hyperblock under construction, while merges rewrite that
// block's body and out-edges in place. It is built once from the
// whole-function solution of the committed function; each query then
// solves only the seed's strongly connected component.
//
// Why the answer is exact. Let R be the blocks that can reach the seed
// when the solver is built. A path's first arrival at the seed uses no
// edge out of the seed, so rewriting the seed's out-edges does not
// change R. Neither does deleting a block whose only predecessor is
// the seed (a plain merge: every path through it has already arrived
// at the seed) or a block no live block reaches (RemoveUnreachable).
// Liveness at a block depends only on the blocks it reaches. A block
// the seed reaches that is outside R never reaches the seed, so
// nothing it reaches has changed, and its live-in set is still the
// one computed at build time. The blocks the seed reaches inside R
// form its strongly connected component; the least fixpoint over
// them, with those live-in sets as boundary values, is what
// ComputeLiveness returns for the seed.
//
// Adding blocks (a basic-block split) can change R, so it needs a new
// solver; Solve panics if the function has gained blocks since.
type BlockLiveness struct {
	f     *ir.Function
	seed  *ir.Block
	base  *Liveness
	bound int    // f.BlockIDBound() at build time
	inR   []bool // by block ID: the block can reach the seed

	// Per-query scratch, kept to avoid reallocating. pos maps a block
	// ID to 1 + its index in comp (-1 while on the DFS stack, 0 when
	// unvisited; reset to 0 after every query).
	pos    []int32
	comp   []*ir.Block // the seed's component, in postorder
	span   [][2]int32  // per comp block: its successors' range in succ
	succ   []*ir.Block
	frames []blFrame
	arena  []uint64 // backs every set below
	in     []RegSet // per comp block
	out    []RegSet
	ues    []RegSet
	kills  []RegSet
	buf    []ir.Reg
}

type blFrame struct {
	b            *ir.Block
	lo, hi, next int32 // successor range in succ, and the next to visit
}

// NewBlockLiveness prepares liveness queries for seed. lv must be
// ComputeLiveness(f) of f as it is now, and seed must be reachable
// from the entry.
func NewBlockLiveness(f *ir.Function, lv *Liveness, seed *ir.Block) *BlockLiveness {
	bound := f.BlockIDBound()
	succs := succLists(f)
	// Predecessor lists in one flat array: preds[start[id]:start[id+1]].
	start := make([]int32, bound+1)
	for _, b := range f.Blocks {
		for _, s := range succs[b.ID] {
			start[s.ID+1]++
		}
	}
	for i := 1; i <= bound; i++ {
		start[i] += start[i-1]
	}
	preds := make([]*ir.Block, start[bound])
	fill := append([]int32(nil), start[:bound]...)
	for _, b := range f.Blocks {
		for _, s := range succs[b.ID] {
			preds[fill[s.ID]] = b
			fill[s.ID]++
		}
	}
	inR := make([]bool, bound)
	inR[seed.ID] = true
	stack := []*ir.Block{seed}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[start[b.ID]:start[b.ID+1]] {
			if !inR[p.ID] {
				inR[p.ID] = true
				stack = append(stack, p)
			}
		}
	}
	return &BlockLiveness{f: f, seed: seed, base: lv, bound: bound, inR: inR,
		pos: make([]int32, bound)}
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
	// Depth-first search from the seed, staying inside R.
	l.comp, l.span, l.succ, l.frames = l.comp[:0], l.span[:0], l.succ[:0], l.frames[:0]
	l.push(l.seed)
	for len(l.frames) > 0 {
		fr := &l.frames[len(l.frames)-1]
		if fr.next < fr.hi {
			s := l.succ[fr.next]
			fr.next++
			if l.inR[s.ID] && l.pos[s.ID] == 0 {
				l.push(s)
			}
			continue
		}
		l.comp = append(l.comp, fr.b)
		l.span = append(l.span, [2]int32{fr.lo, fr.hi})
		l.pos[fr.b.ID] = int32(len(l.comp))
		l.frames = l.frames[:len(l.frames)-1]
	}

	n := len(l.comp)
	words := (l.f.NumRegs() + 63) / 64
	if size := (2*n + 3) * words; cap(l.arena) < size {
		l.arena = make([]uint64, size)
	} else {
		l.arena = l.arena[:size]
		clear(l.arena)
	}
	arena := l.arena
	take := func() RegSet {
		s := RegSet(arena[:words:words])
		arena = arena[words:]
		return s
	}
	ue, kill, tmp := take(), take(), take()
	l.buf = summarize(l.seed, ue, kill, l.buf)
	l.in, l.out = l.in[:0], l.out[:0]
	l.ues, l.kills = l.ues[:0], l.kills[:0]
	for i, b := range l.comp {
		l.in, l.out = append(l.in, take()), append(l.out, take())
		bue, bkill := ue, kill
		if b != l.seed {
			// Only the seed's body changes, so every other block's
			// summary is still the base solution's.
			var ok bool
			if bue, ok = l.base.UEVar[b]; !ok {
				panic(notInBase(b))
			}
			bkill = l.base.Kill[b]
		}
		l.ues, l.kills = append(l.ues, bue), append(l.kills, bkill)
		// Successors outside the component never reach the seed:
		// their live-in sets are constant, the base solution's.
		for _, s := range l.succ[l.span[i][0]:l.span[i][1]] {
			if l.pos[s.ID] > 0 {
				continue
			}
			sin, ok := l.base.In[s]
			if !ok {
				panic(notInBase(s))
			}
			l.out[i].UnionWith(sin)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range l.comp {
			out := l.out[i]
			for _, s := range l.succ[l.span[i][0]:l.span[i][1]] {
				if p := l.pos[s.ID]; p > 0 && out.UnionWith(l.in[p-1]) {
					changed = true
				}
			}
			// in = UEVar ∪ (out − kill)
			copy(tmp, out)
			for j, k := range l.kills[i] {
				tmp[j] &^= k
			}
			for j, u := range l.ues[i] {
				tmp[j] |= u
			}
			if unionInto(l.in[i], tmp) {
				changed = true
			}
		}
	}
	for _, b := range l.comp {
		l.pos[b.ID] = 0
	}
	return l.out[n-1].Copy(), ue.Copy()
}

// push opens a DFS frame for b with its distinct successors.
func (l *BlockLiveness) push(b *ir.Block) {
	l.pos[b.ID] = -1
	lo := int32(len(l.succ))
	l.succ = b.SuccsAppend(l.succ)
	l.frames = append(l.frames, blFrame{b: b, lo: lo, hi: int32(len(l.succ)), next: lo})
}

func notInBase(b *ir.Block) string {
	return "analysis: BlockLiveness reached " + b.String() + ", which the base solution does not cover"
}
