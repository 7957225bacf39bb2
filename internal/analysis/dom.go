package analysis

import "repro/internal/ir"

// DomTree holds immediate-dominator information for the reachable part
// of a function's CFG, indexed by block ID.
type DomTree struct {
	// Order is the reverse postorder used to build the tree.
	Order []*ir.Block

	idom []*ir.Block // by block ID; nil for roots and blocks outside the tree
}

// Idom returns b's immediate dominator, or nil for a root of the tree
// and for blocks outside it.
func (t *DomTree) Idom(b *ir.Block) *ir.Block {
	if b.ID < len(t.idom) {
		return t.idom[b.ID]
	}
	return nil
}

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = t.Idom(b)
	}
	return false
}

// Dominators computes the dominator tree of f using the
// Cooper–Harvey–Kennedy iterative algorithm.
func Dominators(f *ir.Function) *DomTree {
	order, succs := reversePostorder(f)
	return newCFGIndex(f, order, succs).dominators()
}

// dominators builds the dominator tree of the indexed CFG.
func (g *cfgIndex) dominators() *DomTree {
	var roots []*ir.Block
	if len(g.order) > 0 {
		roots = g.order[:1]
	}
	return &DomTree{Order: g.order, idom: chk(g.order, g.pos, g.preds, roots)}
}

// PostDominators computes the post-dominator tree of f over the
// reversed CFG. Functions may have several exit blocks (returns); a
// virtual exit is simulated by seeding every return block as a root.
// Blocks that cannot reach an exit (infinite loops) are absent.
func PostDominators(f *ir.Function) *DomTree {
	order, succs := reversePostorder(f)
	g := newCFGIndex(f, order, succs)
	var exits []*ir.Block
	for _, b := range g.order {
		if b.HasRet() {
			exits = append(exits, b)
		}
	}
	// Reverse postorder of the reversed graph (whose successors are the
	// original predecessors) from every exit, in block-ID order.
	sortBlocksByID(exits)
	bound := len(g.pos)
	pos := make([]int32, bound)
	for i := range pos {
		pos[i] = -1
	}
	order = order[:0:0]
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		pos[b.ID] = 0
		for _, p := range g.preds[b.ID] {
			if pos[p.ID] < 0 {
				dfs(p)
			}
		}
		order = append(order, b)
	}
	for _, e := range exits {
		if pos[e.ID] < 0 {
			dfs(e)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		pos[b.ID] = int32(i)
	}
	// Predecessors in the reversed graph are the original successors
	// that can reach an exit.
	rpred := make([][]*ir.Block, bound)
	for _, b := range order {
		for _, s := range g.succs[b.ID] {
			if pos[s.ID] >= 0 {
				rpred[b.ID] = append(rpred[b.ID], s)
			}
		}
	}
	return &DomTree{Order: order, idom: chk(order, pos, rpred, exits)}
}

// chk runs Cooper–Harvey–Kennedy over order, a reverse postorder whose
// DFS started from roots (in order), and returns the immediate
// dominators by block ID. pos and preds are indexed by block ID; pos
// is -1 for blocks outside order. The roots hang off a virtual root at
// position 0 (block i sits at i+1), so several roots need no special
// case; in the result they have no dominator.
func chk(order []*ir.Block, pos []int32, preds [][]*ir.Block, roots []*ir.Block) []*ir.Block {
	doms := make([]int32, len(order)+1)
	isRoot := make([]bool, len(order)+1)
	for i := range doms {
		doms[i] = -1
	}
	doms[0] = 0
	for _, r := range roots {
		doms[pos[r.ID]+1] = 0
		isRoot[pos[r.ID]+1] = true
	}
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = doms[a]
			}
			for b > a {
				b = doms[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i, b := range order {
			if isRoot[i+1] {
				continue
			}
			idom := int32(-1)
			for _, p := range preds[b.ID] {
				pp := pos[p.ID] + 1
				if pp == 0 || doms[pp] < 0 {
					continue // outside the tree, or not yet processed
				}
				if idom < 0 {
					idom = pp
				} else {
					idom = intersect(pp, idom)
				}
			}
			if idom >= 0 && doms[i+1] != idom {
				doms[i+1] = idom
				changed = true
			}
		}
	}
	idom := make([]*ir.Block, len(pos))
	for i, b := range order {
		if d := doms[i+1]; d > 0 {
			idom[b.ID] = order[d-1]
		}
	}
	return idom
}

func sortBlocksByID(bs []*ir.Block) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j-1].ID > bs[j].ID; j-- {
			bs[j-1], bs[j] = bs[j], bs[j-1]
		}
	}
}
