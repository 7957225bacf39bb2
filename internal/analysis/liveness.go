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

// ComputeLiveness runs backward iterative liveness over f.
//
// Predicated definitions are treated as transparent: a predicated
// write may not execute, so it does not kill the register for
// liveness purposes. This errs conservative (keeps values alive) and
// is exactly what the register allocator and block-output computation
// need.
func ComputeLiveness(f *ir.Function) *Liveness {
	n := f.NumRegs()
	order := Postorder(f)
	lv := &Liveness{
		In:    make(map[*ir.Block]RegSet, len(order)),
		Out:   make(map[*ir.Block]RegSet, len(order)),
		UEVar: make(map[*ir.Block]RegSet, len(order)),
		Kill:  make(map[*ir.Block]RegSet, len(order)),
	}
	// All per-block sets (plus one temporary) come out of a single flat
	// arena, and the fixed point runs over block-ID-indexed slices; the
	// result maps are populated once after convergence.
	words := (n + 63) / 64
	arena := make([]uint64, (4*len(order)+1)*words)
	take := func() RegSet {
		s := RegSet(arena[:words:words])
		arena = arena[words:]
		return s
	}
	bound := f.BlockIDBound()
	inS := make([]RegSet, bound)
	outS := make([]RegSet, bound)
	ueS := make([]RegSet, bound)
	killS := make([]RegSet, bound)
	succs := succLists(f)
	var buf []ir.Reg
	for _, b := range order {
		ue, kill := take(), take()
		buf = summarize(b, ue, kill, buf)
		ueS[b.ID], killS[b.ID] = ue, kill
		inS[b.ID], outS[b.ID] = take(), take()
	}
	tmp := take()
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			out := outS[b.ID]
			for _, s := range succs[b.ID] {
				if in := inS[s.ID]; in != nil {
					if out.UnionWith(in) {
						changed = true
					}
				}
			}
			// in = UEVar ∪ (out − kill)
			copy(tmp, out)
			ue, kill := ueS[b.ID], killS[b.ID]
			for i := range tmp {
				tmp[i] &^= kill[i]
				tmp[i] |= ue[i]
			}
			if unionInto(inS[b.ID], tmp) {
				changed = true
			}
		}
	}
	for _, b := range order {
		lv.In[b] = inS[b.ID]
		lv.Out[b] = outS[b.ID]
		lv.UEVar[b] = ueS[b.ID]
		lv.Kill[b] = killS[b.ID]
	}
	return lv
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
