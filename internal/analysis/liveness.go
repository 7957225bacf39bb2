package analysis

import (
	"math/bits"

	"repro/internal/ir"
)

// RegSet is a set of virtual registers implemented as a bitset.
type RegSet []uint64

// NewRegSet returns a set able to hold registers [0, n).
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports membership.
func (s RegSet) Has(r ir.Reg) bool {
	if !r.Valid() || int(r)/64 >= len(s) {
		return false
	}
	return s[r/64]&(1<<(uint(r)%64)) != 0
}

// Add inserts r and reports whether the set changed.
func (s RegSet) Add(r ir.Reg) bool {
	if !r.Valid() {
		return false
	}
	w, m := int(r)/64, uint64(1)<<(uint(r)%64)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Remove deletes r.
func (s RegSet) Remove(r ir.Reg) {
	if r.Valid() && int(r)/64 < len(s) {
		s[r/64] &^= 1 << (uint(r) % 64)
	}
}

// UnionWith adds every member of o, reporting whether s changed.
func (s RegSet) UnionWith(o RegSet) bool {
	changed := false
	for i := range o {
		if i >= len(s) {
			break
		}
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Copy returns an independent copy.
func (s RegSet) Copy() RegSet {
	c := make(RegSet, len(s))
	copy(c, s)
	return c
}

// Count returns the number of members.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Members returns the registers in ascending order.
func (s RegSet) Members() []ir.Reg {
	return s.AppendMembers(nil)
}

// AppendMembers appends the registers in ascending order to buf
// (which may be nil) and returns the extended slice. Hot callers pass
// a reused buffer to avoid the per-call allocation of Members.
func (s RegSet) AppendMembers(buf []ir.Reg) []ir.Reg {
	for i, w := range s {
		for w != 0 {
			buf = append(buf, ir.Reg(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	In  map[*ir.Block]RegSet
	Out map[*ir.Block]RegSet
	// UEVar (upward-exposed uses) and VarKill per block, useful for
	// callers needing block summaries.
	UEVar map[*ir.Block]RegSet
	Kill  map[*ir.Block]RegSet
}

// liveSets is a liveness solution indexed by block ID; a block
// unreachable when it was solved has nil sets.
type liveSets struct {
	in, out, ue, kill []RegSet
}

// ComputeLiveness runs backward iterative liveness over f.
//
// Predicated definitions are treated as transparent: a predicated
// write may not execute, so it does not kill the register for
// liveness purposes. This errs conservative (keeps values alive) and
// is exactly what the register allocator and block-output computation
// need.
func ComputeLiveness(f *ir.Function) *Liveness {
	order, succs := reversePostorder(f)
	return solveLiveness(f, order, succs).maps(order)
}

// maps indexes s by block for the reachable blocks in order.
func (s *liveSets) maps(order []*ir.Block) *Liveness {
	lv := &Liveness{
		In:    make(map[*ir.Block]RegSet, len(order)),
		Out:   make(map[*ir.Block]RegSet, len(order)),
		UEVar: make(map[*ir.Block]RegSet, len(order)),
		Kill:  make(map[*ir.Block]RegSet, len(order)),
	}
	for _, b := range order {
		lv.In[b] = s.in[b.ID]
		lv.Out[b] = s.out[b.ID]
		lv.UEVar[b] = s.ue[b.ID]
		lv.Kill[b] = s.kill[b.ID]
	}
	return lv
}

// solveLiveness is ComputeLiveness by block ID; rpo and succs are what
// reversePostorder(f) returned.
func solveLiveness(f *ir.Function, rpo []*ir.Block, succs [][]*ir.Block) *liveSets {
	n := f.NumRegs()
	// All per-block sets (plus one temporary) come out of a single flat
	// arena, and the fixed point runs over block-ID-indexed slices.
	words := (n + 63) / 64
	arena := make([]uint64, (4*len(rpo)+1)*words)
	take := func() RegSet {
		s := RegSet(arena[:words:words])
		arena = arena[words:]
		return s
	}
	bound := f.BlockIDBound()
	s := &liveSets{
		in:   make([]RegSet, bound),
		out:  make([]RegSet, bound),
		ue:   make([]RegSet, bound),
		kill: make([]RegSet, bound),
	}
	var buf []ir.Reg
	for _, b := range rpo {
		ue, kill := take(), take()
		buf = summarize(b, ue, kill, buf)
		s.ue[b.ID], s.kill[b.ID] = ue, kill
		s.in[b.ID], s.out[b.ID] = take(), take()
	}
	tmp := take()
	changed := true
	for changed {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- { // postorder
			b := rpo[i]
			out := s.out[b.ID]
			for _, t := range succs[b.ID] {
				if out.UnionWith(s.in[t.ID]) {
					changed = true
				}
			}
			// in = UEVar ∪ (out − kill)
			copy(tmp, out)
			ue, kill := s.ue[b.ID], s.kill[b.ID]
			for i := range tmp {
				tmp[i] &^= kill[i]
				tmp[i] |= ue[i]
			}
			if unionInto(s.in[b.ID], tmp) {
				changed = true
			}
		}
	}
	return s
}

// summarize adds b's upward-exposed uses to ue and its unpredicated
// definitions to kill, and returns the grown scratch buffer buf.
func summarize(b *ir.Block, ue, kill RegSet, buf []ir.Reg) []ir.Reg {
	for _, in := range b.Instrs {
		buf = in.Uses(buf)
		for _, r := range buf {
			if !kill.Has(r) {
				ue.Add(r)
			}
		}
		if d := in.Def(); d.Valid() && !in.Predicated() {
			kill.Add(d)
		}
	}
	return buf
}

func unionInto(dst, src RegSet) bool {
	changed := false
	for i := range src {
		n := dst[i] | src[i]
		if n != dst[i] {
			dst[i] = n
			changed = true
		}
	}
	return changed
}

// LiveOutWrites returns the registers written in b that are live out
// of b — the block's register outputs in the TRIPS sense.
func LiveOutWrites(b *ir.Block, lv *Liveness) []ir.Reg {
	return LiveOutWritesAppend(b, lv, nil)
}

// LiveOutWritesAppend is LiveOutWrites appending into buf (which may
// be nil), for callers reusing a buffer.
func LiveOutWritesAppend(b *ir.Block, lv *Liveness, buf []ir.Reg) []ir.Reg {
	out := lv.Out[b]
	base := len(buf)
	res := buf
	for _, in := range b.Instrs {
		if d := in.Def(); d.Valid() && out.Has(d) {
			dup := false
			for _, r := range res[base:] {
				if r == d {
					dup = true
					break
				}
			}
			if !dup {
				res = append(res, d)
			}
		}
	}
	return res
}

// BlockReads returns the distinct registers read in b that are defined
// outside b (upward exposed) — the block's register inputs.
func BlockReads(b *ir.Block, lv *Liveness) []ir.Reg {
	return lv.UEVar[b].Members()
}
