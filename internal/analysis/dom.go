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
