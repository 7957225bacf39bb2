package analysis

import (
	"slices"

	"repro/internal/ir"
)

// Cache memoizes the function-level analyses behind a (function,
// version) key, where the version is ir.Function.Version — the
// mutation counter bumped by every structural edit and by MarkDirty at
// in-place rewrite sites. The convergent formation loop asks for
// dominators, loops, reverse postorder and liveness after every merge
// step even though most steps change nothing: a rejected merge attempt
// runs in place but rolls the function back, version included
// (ir.Function.Rollback). With the cache those requests become
// pointer+integer comparisons. The loop forest can also outlive a
// committed merge: see Merged.
//
// A Cache is single-goroutine state (one per Former / per worker); it
// holds at most one function's analyses at a time, which matches the
// formation loop's access pattern of working one function to
// completion before moving on.
type Cache struct {
	fn      *ir.Function
	version uint64

	rpo   []*ir.Block
	succs [][]*ir.Block // by block ID, walked by the RPO
	g     *cfgIndex
	dom   *DomTree
	live  *Liveness
	sets  *liveSets

	loops loopState
}

// loopState is the cached loop forest, kept under its own version so
// Merged can carry it across commits.
type loopState struct {
	fn      *ir.Function
	version uint64 // forest is exact for fn at this version,
	nblocks int    // when fn had this many blocks
	forest  *LoopForest
	// dom is the dominator tree forest was built from, and preds the
	// reachable predecessor lists by block ID, which Merged keeps
	// current. stale marks the blocks whose dominator sets may have
	// grown since dom was built: every other block's dominators are its
	// chain in dom, less some stale blocks.
	dom   *DomTree
	preds [][]*ir.Block
	stale []bool
	buf   []*ir.Block
}

// sync flushes the version-keyed results if f or its version differs
// from what the cache holds.
func (c *Cache) sync(f *ir.Function) {
	if c.fn == f && c.version == f.Version() {
		return
	}
	c.fn = f
	c.version = f.Version()
	c.rpo, c.succs, c.g, c.dom, c.live, c.sets = nil, nil, nil, nil, nil, nil
}

// Invalidate drops all cached results unconditionally.
func (c *Cache) Invalidate() {
	c.fn = nil
	c.rpo, c.succs, c.g, c.dom, c.live, c.sets = nil, nil, nil, nil, nil, nil
	c.loops = loopState{}
}

// RPO returns (possibly cached) ReversePostorder(f). Callers must not
// mutate the returned slice.
func (c *Cache) RPO(f *ir.Function) []*ir.Block {
	c.sync(f)
	if c.rpo == nil {
		c.rpo, c.succs = reversePostorder(f)
	}
	return c.rpo
}

// index returns the CFG index of f built from the cached RPO.
func (c *Cache) index(f *ir.Function) *cfgIndex {
	c.RPO(f)
	if c.g == nil {
		c.g = newCFGIndex(f, c.rpo, c.succs)
	}
	return c.g
}

// Dom returns (possibly cached) Dominators(f).
func (c *Cache) Dom(f *ir.Function) *DomTree {
	c.sync(f)
	if c.dom == nil {
		c.dom = c.index(f).dominators()
	}
	return c.dom
}

// Loops returns (possibly cached) Loops(f), sharing the dominator tree
// and predecessor lists with Dom. A forest carried across commits by
// Merged answers IsHeader, IsBackEdge, InnermostLoop and Contains for
// f's blocks as a fresh one would; its Blocks and Latches lists are
// those of its last rebuild.
func (c *Cache) Loops(f *ir.Function) *LoopForest {
	if ls := &c.loops; ls.forest != nil && ls.fn == f && ls.version == f.Version() {
		return ls.forest
	}
	g, dom := c.index(f), c.Dom(f)
	c.loops = loopState{fn: f, version: f.Version(), nblocks: len(f.Blocks),
		forest: g.loops(dom), dom: dom, preds: g.preds, stale: make([]bool, len(g.pos))}
	return c.loops.forest
}

// Liveness returns (possibly cached) ComputeLiveness(f).
func (c *Cache) Liveness(f *ir.Function) *Liveness {
	c.sync(f)
	if c.live == nil {
		c.live = c.liveSets(f).maps(c.rpo)
	}
	return c.live
}

func (c *Cache) liveSets(f *ir.Function) *liveSets {
	c.RPO(f)
	if c.sets == nil {
		c.sets = solveLiveness(f, c.rpo, c.succs)
	}
	return c.sets
}

// BlockLiveness prepares liveness queries for seed, which must be
// reachable from f's entry, from the (possibly cached) liveness of f
// as it is now.
func (c *Cache) BlockLiveness(f *ir.Function, seed *ir.Block) *BlockLiveness {
	return newBlockLiveness(f, c.liveSets(f), seed)
}

// Merged reports a committed merge of s into hb: hb's body now ends
// with a copy of s's (of its own saved body when s == hb, an unroll),
// old lists hb's distinct successors before the merge, and deleted
// says s was removed from f (a plain merge). before is f's version
// when the merge started. If the cached forest was exact at that version and
// the merge provably changes no IsHeader, IsBackEdge or InnermostLoop
// answer, the forest is carried to f's current version; otherwise the
// next Loops call rebuilds it.
//
// The proof, for a merge whose successor sets are clean: hb's new
// successors are exactly its old ones, less s unless a branch to s
// remains, plus s's (an unroll must leave them unchanged), and nothing
// became unreachable. Replacing each new edge hb→u by hb→s→u maps
// every new path to an old one through the same blocks plus s, and
// replacing each removed hb→s→u by hb→u maps every old path to a
// block other than s to a new one through the same blocks, less some
// visits to s. So among blocks other than s, dominance is unchanged:
// s may stop dominating blocks, and its own dominators may grow. A
// path's first arrival at hb uses no edge out of hb, so hb's
// dominators do not change.
//   - A plain merge contracts the edge hb→s (s had no other
//     predecessor): hb→u is a back edge exactly when s→u was, and no
//     other answer changes.
//   - A copied s that heads a loop may lose its back edges: rebuild.
//     Otherwise no edge into s is, or becomes, a back edge.
//   - A new edge hb→u is a back edge iff u dominates hb. dom answers
//     that exactly unless hb is stale (its dominators may have grown)
//     or u is stale and dom says yes.
//   - When hb no longer branches to s, an edge s→y becomes a back edge
//     if y now dominates every remaining predecessor of s. A
//     predecessor p that is not stale and that dom says y does not
//     dominate rules that out.
//   - Loop bodies keep their blocks: every path hb→s→… that reached a
//     latch maps to one through hb→… and back.
//
// A copied s that survives then becomes stale.
func (c *Cache) Merged(f *ir.Function, before uint64, hb, s *ir.Block, old []*ir.Block, deleted bool) {
	ls := &c.loops
	if ls.forest == nil || ls.fn != f || ls.version != before {
		return
	}
	want := ls.nblocks // no block became unreachable
	if deleted {
		want--
	}
	if len(f.Blocks) == want && ls.carry(hb, s, old, deleted) {
		ls.version, ls.nblocks = f.Version(), want
		return
	}
	c.loops = loopState{}
}

// carry patches the predecessor lists and stale marks for a clean
// merge and reports whether the forest is still exact (see Merged).
func (ls *loopState) carry(hb, s *ir.Block, old []*ir.Block, deleted bool) bool {
	lf := ls.forest
	cur := hb.SuccsAppend(ls.buf[:0])
	ls.buf = cur
	if s == hb {
		return len(cur) == len(old) && subset(cur, old)
	}
	if lf.IsHeader(s) {
		return false
	}
	ss := s.Succs()
	keepS := slices.Contains(cur, s)
	for _, b := range old {
		if b != s && !slices.Contains(cur, b) {
			return false
		}
	}
	for _, b := range cur {
		if !slices.Contains(old, b) && !slices.Contains(ss, b) {
			return false
		}
	}
	if !subset(ss, cur) {
		return false
	}
	// Clean. Patch the predecessor lists.
	if !keepS {
		ls.unlink(hb, s)
	}
	for _, u := range cur {
		if !slices.Contains(old, u) {
			ls.preds[u.ID] = append(ls.preds[u.ID], hb)
		}
	}
	if deleted {
		for _, u := range ss {
			ls.unlink(s, u)
		}
		return true
	}
	// New edges out of hb.
	for _, u := range cur {
		if slices.Contains(old, u) {
			continue
		}
		if ls.stale[hb.ID] {
			return false
		}
		back := ls.dom.Dominates(u, hb)
		if back && ls.stale[u.ID] || back != lf.IsBackEdge(hb, u) {
			return false
		}
	}
	// Edges out of s that may have become back edges.
	if !keepS {
		for _, y := range ss {
			if lf.IsBackEdge(s, y) {
				continue
			}
			ruledOut := false
			for _, p := range ls.preds[s.ID] {
				if !ls.stale[p.ID] && !ls.dom.Dominates(y, p) {
					ruledOut = true
					break
				}
			}
			if !ruledOut {
				return false
			}
		}
	}
	ls.stale[s.ID] = true
	return true
}

// unlink removes p from s's predecessor list.
func (ls *loopState) unlink(p, s *ir.Block) {
	ps := ls.preds[s.ID]
	if i := slices.Index(ps, p); i >= 0 {
		ls.preds[s.ID] = slices.Delete(ps, i, i+1)
	}
}

// subset reports whether every block of a is in b.
func subset(a, b []*ir.Block) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
