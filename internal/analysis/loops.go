package analysis

import (
	"slices"

	"repro/internal/ir"
)

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop's entry block (target of its back edges).
	Header *ir.Block
	// Blocks is the loop body including the header, in reverse
	// postorder.
	Blocks []*ir.Block
	// Latches are the source blocks of back edges into Header, in
	// reverse postorder.
	Latches []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Children are the immediately nested loops, by header ID.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int

	forest *LoopForest
}

// Contains reports whether b belongs to the loop body. Natural loops
// with distinct headers are disjoint or nested, so b belongs to l
// exactly when l encloses b's innermost loop.
func (l *Loop) Contains(b *ir.Block) bool {
	for x := l.forest.InnermostLoop(b); x != nil && x.Depth >= l.Depth; x = x.Parent {
		if x == l {
			return true
		}
	}
	return false
}

// Exits returns the distinct blocks outside the loop that are branch
// targets of blocks inside it.
func (l *Loop) Exits() []*ir.Block {
	var out []*ir.Block
	for _, b := range l.Blocks {
		for _, s := range b.Succs() {
			if !l.Contains(s) && !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	sortBlocksByID(out)
	return out
}

// LoopForest is the set of natural loops of a function.
type LoopForest struct {
	// Top lists outermost loops, by header ID.
	Top []*Loop

	header []*Loop // by block ID: the loop the block heads
	loopOf []*Loop // by block ID: the innermost loop containing it
}

// ByHeader returns the loop headed by h, or nil. Natural loops sharing
// a header are merged into one Loop.
func (lf *LoopForest) ByHeader(h *ir.Block) *Loop {
	if h.ID < len(lf.header) {
		return lf.header[h.ID]
	}
	return nil
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (lf *LoopForest) InnermostLoop(b *ir.Block) *Loop {
	if b.ID < len(lf.loopOf) {
		return lf.loopOf[b.ID]
	}
	return nil
}

// IsHeader reports whether b is a loop header.
func (lf *LoopForest) IsHeader(b *ir.Block) bool { return lf.ByHeader(b) != nil }

// IsBackEdge reports whether the CFG edge from -> to is a back edge of
// some natural loop (to is a header whose loop contains from).
func (lf *LoopForest) IsBackEdge(from, to *ir.Block) bool {
	l := lf.ByHeader(to)
	return l != nil && l.Contains(from)
}

// Loops computes the natural-loop forest of f using the dominator
// tree: an edge n->h is a back edge iff h dominates n. Loops with a
// shared header are merged.
func Loops(f *ir.Function) *LoopForest {
	order, succs := reversePostorder(f)
	g := newCFGIndex(f, order, succs)
	return g.loops(g.dominators())
}

// loops builds the loop forest of the indexed CFG from its dominator
// tree.
func (g *cfgIndex) loops(dom *DomTree) *LoopForest {
	bound := len(g.pos)
	lf := &LoopForest{header: make([]*Loop, bound), loopOf: make([]*Loop, bound)}

	// Back edges, latches in reverse postorder. A header dominates its
	// latch, so it never comes after it in reverse postorder.
	var loops []*Loop
	for _, n := range g.order {
		for _, h := range g.succs[n.ID] {
			if g.pos[h.ID] > g.pos[n.ID] || !dom.Dominates(h, n) {
				continue
			}
			l := lf.header[h.ID]
			if l == nil {
				l = &Loop{Header: h, forest: lf}
				lf.header[h.ID] = l
				loops = append(loops, l)
			}
			l.Latches = append(l.Latches, n)
		}
	}

	// Bodies: walk predecessors backward from each latch until the
	// header. mark holds the 1-based index of the last loop whose walk
	// reached a block.
	mark := make([]int32, bound)
	var stack []*ir.Block
	for i, l := range loops {
		stamp := int32(i + 1)
		mark[l.Header.ID] = stamp
		l.Blocks = append(l.Blocks, l.Header)
		for _, latch := range l.Latches {
			if mark[latch.ID] == stamp {
				continue
			}
			mark[latch.ID] = stamp
			l.Blocks = append(l.Blocks, latch)
			stack = append(stack[:0], latch)
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range g.preds[b.ID] {
					if mark[p.ID] != stamp {
						mark[p.ID] = stamp
						l.Blocks = append(l.Blocks, p)
						stack = append(stack, p)
					}
				}
			}
		}
		slices.SortFunc(l.Blocks, func(a, b *ir.Block) int { return int(g.pos[a.ID] - g.pos[b.ID]) })
	}

	// Nesting. Loops with distinct headers are disjoint or nested, so
	// assigning bodies from the largest loop to the smallest leaves each
	// block with its innermost loop, and when a loop's turn comes its
	// header's current loop is its parent.
	bySize := slices.Clone(loops)
	slices.SortStableFunc(bySize, func(a, b *Loop) int { return len(b.Blocks) - len(a.Blocks) })
	for _, l := range bySize {
		if p := lf.loopOf[l.Header.ID]; p != nil {
			l.Parent, l.Depth = p, p.Depth+1
		} else {
			l.Depth = 1
		}
		for _, b := range l.Blocks {
			lf.loopOf[b.ID] = l
		}
	}
	slices.SortFunc(loops, func(a, b *Loop) int { return a.Header.ID - b.Header.ID })
	for _, l := range loops {
		if l.Parent != nil {
			l.Parent.Children = append(l.Parent.Children, l)
		} else {
			lf.Top = append(lf.Top, l)
		}
	}
	return lf
}
