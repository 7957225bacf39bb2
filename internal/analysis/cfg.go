// Package analysis provides the control-flow and dataflow analyses the
// hyperblock former and optimizer depend on: reverse postorder,
// dominators and post-dominators (Cooper–Harvey–Kennedy), a
// natural-loop forest, liveness, and def-use summaries.
package analysis

import "repro/internal/ir"

// succLists returns per-block distinct-successor lists indexed by
// block ID, all backed by one flat arena (capacity is the total branch
// count, an upper bound on distinct successors, so the arena never
// reallocates and the subslices stay valid).
func succLists(f *ir.Function) [][]*ir.Block {
	lists := make([][]*ir.Block, f.BlockIDBound())
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBr {
				total++
			}
		}
	}
	arena := make([]*ir.Block, 0, total)
	for _, b := range f.Blocks {
		start := len(arena)
		arena = b.SuccsAppend(arena)
		lists[b.ID] = arena[start:len(arena):len(arena)]
	}
	return lists
}

// ReversePostorder returns the blocks reachable from f's entry in
// reverse postorder of a depth-first traversal. Unreachable blocks are
// omitted.
//
// The traversal is an explicit-stack DFS that visits successors in the
// same order as the recursive formulation, so the returned order is
// identical instruction-for-instruction to the original recursive
// implementation.
func ReversePostorder(f *ir.Function) []*ir.Block {
	order, _ := reversePostorder(f)
	return order
}

// reversePostorder is ReversePostorder, also returning the successor
// lists it walked (succLists(f)) so callers need not rescan the
// instructions.
func reversePostorder(f *ir.Function) ([]*ir.Block, [][]*ir.Block) {
	succs := succLists(f)
	e := f.Entry()
	if e == nil {
		return nil, succs
	}
	seen := make([]bool, f.BlockIDBound())
	order := make([]*ir.Block, 0, len(f.Blocks))
	type dfsFrame struct {
		b *ir.Block
		i int
	}
	stack := make([]dfsFrame, 0, len(f.Blocks))
	seen[e.ID] = true
	stack = append(stack, dfsFrame{b: e})
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		ss := succs[fr.b.ID]
		if fr.i < len(ss) {
			s := ss[fr.i]
			fr.i++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, dfsFrame{b: s})
			}
			continue
		}
		order = append(order, fr.b)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, succs
}

// cfgIndex is the reachable part of a function's CFG indexed by block
// ID. One is built per analysis rebuild, from a reverse postorder and
// the successor lists that walked it, and the dominator tree and the
// loop forest both read it.
type cfgIndex struct {
	order []*ir.Block   // reverse postorder of the reachable blocks
	pos   []int32       // by block ID: index in order, -1 if unreachable
	succs [][]*ir.Block // by block ID: distinct successors
	preds [][]*ir.Block // by block ID: predecessors, in reverse postorder
}

// newCFGIndex indexes f's reachable CFG; order and succs are what
// reversePostorder(f) returned.
func newCFGIndex(f *ir.Function, order []*ir.Block, succs [][]*ir.Block) *cfgIndex {
	bound := f.BlockIDBound()
	pos := make([]int32, bound)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range order {
		pos[b.ID] = int32(i)
	}
	return &cfgIndex{order: order, pos: pos, succs: succs, preds: predLists(order, succs, bound)}
}

// predLists returns, by block ID, the predecessors among blocks (in
// their order) given the successor lists by block ID. The lists share
// one flat array, each capped at its own end, so an append to one
// (Cache.Merged) reallocates it instead of overwriting its neighbour.
func predLists(blocks []*ir.Block, succs [][]*ir.Block, bound int) [][]*ir.Block {
	start := make([]int32, bound+1)
	for _, b := range blocks {
		for _, s := range succs[b.ID] {
			start[s.ID+1]++
		}
	}
	for i := 1; i <= bound; i++ {
		start[i] += start[i-1]
	}
	arena := make([]*ir.Block, start[bound])
	preds := make([][]*ir.Block, bound)
	for id := range preds {
		preds[id] = arena[start[id]:start[id]:start[id+1]]
	}
	for _, b := range blocks {
		for _, s := range succs[b.ID] {
			preds[s.ID] = append(preds[s.ID], b)
		}
	}
	return preds
}

// EdgeCount returns the number of distinct CFG edges (p, s) in f.
func EdgeCount(f *ir.Function) int {
	n := 0
	var buf []*ir.Block
	for _, b := range f.Blocks {
		buf = b.SuccsAppend(buf[:0])
		n += len(buf)
	}
	return n
}

// Reachable returns the set of blocks reachable from the entry.
func Reachable(f *ir.Function) map[*ir.Block]bool {
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var stack, succs []*ir.Block
	if e := f.Entry(); e != nil {
		stack = append(stack, e)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		succs = b.SuccsAppend(succs[:0])
		for _, s := range succs {
			if !seen[s] {
				stack = append(stack, s)
			}
		}
	}
	return seen
}
