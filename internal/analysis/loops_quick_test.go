package analysis

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/seeded"
)

// refModel is the textbook definition of dominators and natural loops,
// computed the slow way: dom(n) = {n} ∪ ⋂ dom(p) over n's reachable
// predecessors, iterated from "every block" to a fixpoint, and each
// natural loop grown backward from its latches. Sets are keyed by
// block ID.
type refModel struct {
	reach  map[int]bool
	dom    map[int]map[int]bool // reachable block -> its dominators
	loops  map[int]map[int]bool // header -> loop body
	latchs map[int][]int        // header -> latch IDs
}

func newRefModel(f *ir.Function) *refModel {
	m := &refModel{reach: map[int]bool{}, dom: map[int]map[int]bool{},
		loops: map[int]map[int]bool{}, latchs: map[int][]int{}}
	preds := map[int][]int{}
	stack := []*ir.Block{f.Entry()}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.reach[b.ID] {
			continue
		}
		m.reach[b.ID] = true
		for _, s := range b.Succs() {
			stack = append(stack, s)
		}
	}
	for _, b := range f.Blocks {
		if m.reach[b.ID] {
			for _, s := range b.Succs() {
				preds[s.ID] = append(preds[s.ID], b.ID)
			}
		}
	}
	entry := f.Entry().ID
	for id := range m.reach {
		m.dom[id] = map[int]bool{}
		for d := range m.reach {
			if id != entry || d == entry {
				m.dom[id][d] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for id := range m.reach {
			if id == entry {
				continue
			}
			next := map[int]bool{id: true}
			for d := range m.reach {
				all := true
				for _, p := range preds[id] {
					all = all && m.dom[p][d]
				}
				if all {
					next[d] = true
				}
			}
			if len(next) != len(m.dom[id]) {
				m.dom[id], changed = next, true
			}
		}
	}
	for _, n := range f.Blocks {
		if !m.reach[n.ID] {
			continue
		}
		for _, h := range n.Succs() {
			if !m.dom[n.ID][h.ID] {
				continue
			}
			if m.loops[h.ID] == nil {
				m.loops[h.ID] = map[int]bool{h.ID: true}
			}
			m.latchs[h.ID] = append(m.latchs[h.ID], n.ID)
			body := m.loops[h.ID]
			work := []int{n.ID}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if body[x] {
					continue
				}
				body[x] = true
				work = append(work, preds[x]...)
			}
		}
	}
	return m
}

// idom is the strict dominator every other strict dominator of id
// dominates, or -1 for the entry.
func (m *refModel) idom(id int) int {
	for d := range m.dom[id] {
		if d != id && len(m.dom[d]) == len(m.dom[id])-1 {
			return d
		}
	}
	return -1
}

// innermost is the smallest loop containing id, or -1.
func (m *refModel) innermost(id int) int {
	best := -1
	for h, body := range m.loops {
		if body[id] && (best < 0 || len(body) < len(m.loops[best])) {
			best = h
		}
	}
	return best
}

// parent is the smallest loop strictly containing header h's, or -1.
func (m *refModel) parent(h int) int {
	best := -1
	for g, body := range m.loops {
		if g != h && body[h] && (best < 0 || len(body) < len(m.loops[best])) {
			best = g
		}
	}
	return best
}

// checkAgainstRef compares every answer of Dominators and Loops on f
// with the reference model.
func checkAgainstRef(f *ir.Function) error {
	m := newRefModel(f)
	dom, lf := Dominators(f), Loops(f)
	rpo := ReversePostorder(f)
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	id := func(b *ir.Block) int {
		if b == nil {
			return -1
		}
		return b.ID
	}
	loopID := func(l *Loop) int {
		if l == nil {
			return -1
		}
		return l.Header.ID
	}
	for _, b := range f.Blocks {
		if !m.reach[b.ID] {
			if dom.Idom(b) != nil || lf.IsHeader(b) || lf.InnermostLoop(b) != nil {
				return fmt.Errorf("unreachable %s is in the dominator tree or a loop", b)
			}
			continue
		}
		if got, want := id(dom.Idom(b)), m.idom(b.ID); got != want {
			return fmt.Errorf("idom(%s) = %d, want %d", b, got, want)
		}
		if got, want := loopID(lf.InnermostLoop(b)), m.innermost(b.ID); got != want {
			return fmt.Errorf("InnermostLoop(%s) headed by %d, want %d", b, got, want)
		}
		if got, want := lf.IsHeader(b), m.loops[b.ID] != nil; got != want {
			return fmt.Errorf("IsHeader(%s) = %v, want %v", b, got, want)
		}
		for _, a := range f.Blocks {
			if !m.reach[a.ID] {
				continue
			}
			if got, want := dom.Dominates(a, b), m.dom[b.ID][a.ID]; got != want {
				return fmt.Errorf("Dominates(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := lf.IsBackEdge(a, b), m.loops[b.ID][a.ID]; got != want {
				return fmt.Errorf("IsBackEdge(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
	var top []int
	for h, body := range m.loops {
		l := lf.ByHeader(f.BlockByID(h))
		if l == nil {
			return fmt.Errorf("no loop headed by %d", h)
		}
		var latches []int
		for _, n := range l.Latches {
			latches = append(latches, n.ID)
		}
		if !slices.IsSortedFunc(l.Latches, func(a, b *ir.Block) int { return pos[a] - pos[b] }) ||
			!sameIDs(latches, m.latchs[h]) {
			return fmt.Errorf("loop %d: latches %v, want %v in reverse postorder", h, latches, m.latchs[h])
		}
		var blocks []int
		for _, b := range l.Blocks {
			blocks = append(blocks, b.ID)
		}
		var want []int
		for x := range body {
			want = append(want, x)
		}
		if !slices.IsSortedFunc(l.Blocks, func(a, b *ir.Block) int { return pos[a] - pos[b] }) || !sameIDs(blocks, want) {
			return fmt.Errorf("loop %d: blocks %v, want %v in reverse postorder", h, blocks, want)
		}
		for _, b := range f.Blocks {
			if got := l.Contains(b); got != body[b.ID] {
				return fmt.Errorf("loop %d: Contains(%s) = %v", h, b, got)
			}
		}
		p := m.parent(h)
		if got := loopID(l.Parent); got != p {
			return fmt.Errorf("loop %d: parent %d, want %d", h, got, p)
		}
		depth := 1
		for q := p; q >= 0; q = m.parent(q) {
			depth++
		}
		if l.Depth != depth {
			return fmt.Errorf("loop %d: depth %d, want %d", h, l.Depth, depth)
		}
		var kids, wantKids []int
		for _, c := range l.Children {
			kids = append(kids, c.Header.ID)
		}
		for g := range m.loops {
			if g != h && m.parent(g) == h {
				wantKids = append(wantKids, g)
			}
		}
		slices.Sort(wantKids)
		if !slices.Equal(kids, wantKids) {
			return fmt.Errorf("loop %d: children %v, want %v by header ID", h, kids, wantKids)
		}
		if p < 0 {
			top = append(top, h)
		}
	}
	slices.Sort(top)
	var gotTop []int
	for _, l := range lf.Top {
		gotTop = append(gotTop, l.Header.ID)
	}
	if !slices.Equal(gotTop, top) {
		return fmt.Errorf("top loops %v, want %v by header ID", gotTop, top)
	}
	return nil
}

func sameIDs(a, b []int) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// Property: on random CFGs with self-loops, nested and irreducible
// cycles and unreachable blocks, Dominators and Loops agree with the
// reference model on immediate dominators, Dominates, loop headers,
// bodies and latches, the nesting and its order, and InnermostLoop.
func TestQuickDominatorsAndLoopsMatchReference(t *testing.T) {
	rng := seeded.Stream(7)
	loops := 0
	for trial := 0; trial < 3000; trial++ {
		f, _ := randomCFG(&rng, 1+randInt(&rng, 14))
		if err := checkAgainstRef(f); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, ir.FormatFunction(f))
		}
		loops += len(Loops(f).Top)
	}
	if loops == 0 {
		t.Fatal("no random CFG had a loop")
	}
}

// mergeCopy rewrites the CFG the way a committed merge of s into hb
// does: one branch hb→s gives way to a copy of s's exits (of hb's own
// when s == hb, an unroll), a plain merge deletes s, and the blocks
// left unreachable go. With fold set it also drops one of hb's other
// branches, as constant folding may. It returns hb's successors
// before the merge and whether s was deleted.
func mergeCopy(rng *seeded.Stream, f *ir.Function, hb, s *ir.Block, fold bool) (old []*ir.Block, deleted bool) {
	old = hb.Succs()
	deleted = s != hb && f.NumPredEdges(s) == 1
	var exits []*ir.Instr
	for _, in := range s.Instrs {
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			exits = append(exits, in.Clone())
		}
	}
	i := slices.IndexFunc(hb.Instrs, func(in *ir.Instr) bool { return in.Op == ir.OpBr && in.Target == s })
	hb.Instrs = append(slices.Delete(slices.Clone(hb.Instrs), i, i+1), exits...)
	if fold {
		var brs []int
		for j, in := range hb.Instrs {
			if in.Op == ir.OpBr {
				brs = append(brs, j)
			}
		}
		if len(brs) > 1 {
			j := brs[randInt(rng, len(brs))]
			hb.Instrs = slices.Delete(hb.Instrs, j, j+1)
		}
	}
	f.MarkDirty()
	if deleted {
		f.RemoveBlock(s)
	}
	f.RemoveUnreachable()
	return old, deleted
}

// Property: across random merge sequences on random CFGs, the forest
// Cache.Loops returns after Cache.Merged, carried or rebuilt, answers
// IsHeader, InnermostLoop and IsBackEdge as a fresh Loops does.
func TestQuickMergedLoopsMatchFresh(t *testing.T) {
	rng := seeded.Stream(11)
	carried, merges := 0, 0
	for trial := 0; trial < 3000; trial++ {
		f, _ := randomCFG(&rng, 2+randInt(&rng, 12))
		f.RemoveUnreachable()
		var c Cache
		for step := 0; step < 16; step++ {
			lf := c.Loops(f)
			rpo := ReversePostorder(f)
			hb := rpo[randInt(&rng, len(rpo))]
			succs := hb.Succs()
			if len(succs) == 0 {
				continue
			}
			s := succs[randInt(&rng, len(succs))]
			before := f.Version()
			old, deleted := mergeCopy(&rng, f, hb, s, randInt(&rng, 4) == 0)
			c.Merged(f, before, hb, s, old, deleted)
			merges++
			got := c.Loops(f)
			if got == lf {
				carried++
			}
			if bad := diffForests(f, got, Loops(f)); bad != "" {
				t.Fatalf("trial %d: after merging %s into %s (carried: %v): %s\n%s",
					trial, s, hb, got == lf, bad, ir.FormatFunction(f))
			}
		}
	}
	t.Logf("%d of %d merges carried the forest", carried, merges)
	if carried == 0 || carried == merges {
		t.Fatalf("%d of %d merges carried the forest: the property exercises one path only", carried, merges)
	}
}

// diffForests describes the first question got and want answer
// differently, or returns "".
func diffForests(f *ir.Function, got, want *LoopForest) string {
	header := func(l *Loop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	for _, b := range ReversePostorder(f) {
		if g, w := got.IsHeader(b), want.IsHeader(b); g != w {
			return fmt.Sprintf("IsHeader(%s) = %v, want %v", b, g, w)
		}
		if g, w := header(got.InnermostLoop(b)), header(want.InnermostLoop(b)); g != w {
			return fmt.Sprintf("InnermostLoop(%s) headed by %v, want %v", b, g, w)
		}
		for _, s := range b.Succs() {
			if g, w := got.IsBackEdge(b, s), want.IsBackEdge(b, s); g != w {
				return fmt.Sprintf("IsBackEdge(%s, %s) = %v, want %v", b, s, g, w)
			}
		}
	}
	return ""
}
