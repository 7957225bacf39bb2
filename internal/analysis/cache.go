package analysis

import "repro/internal/ir"

// Cache memoizes the function-level analyses behind a (function,
// version) key, where the version is ir.Function.Version — the
// mutation counter bumped by every structural edit and by MarkDirty at
// in-place rewrite sites. The convergent formation loop asks for
// dominators, loops, reverse postorder and liveness after every merge
// step even though most steps change nothing: a rejected merge attempt
// runs in place but rolls the function back, version included
// (ir.Function.Rollback). With the cache those requests become
// pointer+integer comparisons.
//
// A Cache is single-goroutine state (one per Former / per worker); it
// holds at most one function's analyses at a time, which matches the
// formation loop's access pattern of working one function to
// completion before moving on.
type Cache struct {
	fn      *ir.Function
	version uint64

	rpo   []*ir.Block
	dom   *DomTree
	loops *LoopForest
	live  *Liveness
}

// sync flushes everything if f or its version differs from what the
// cache holds.
func (c *Cache) sync(f *ir.Function) {
	if c.fn == f && c.version == f.Version() {
		return
	}
	c.fn = f
	c.version = f.Version()
	c.rpo = nil
	c.dom = nil
	c.loops = nil
	c.live = nil
}

// Invalidate drops all cached results unconditionally.
func (c *Cache) Invalidate() {
	c.fn = nil
	c.rpo, c.dom, c.loops, c.live = nil, nil, nil, nil
}

// RPO returns (possibly cached) ReversePostorder(f). Callers must not
// mutate the returned slice.
func (c *Cache) RPO(f *ir.Function) []*ir.Block {
	c.sync(f)
	if c.rpo == nil {
		c.rpo = ReversePostorder(f)
	}
	return c.rpo
}

// Dom returns (possibly cached) Dominators(f).
func (c *Cache) Dom(f *ir.Function) *DomTree {
	c.sync(f)
	if c.dom == nil {
		c.dom = Dominators(f)
	}
	return c.dom
}

// Loops returns (possibly cached) Loops(f), sharing the dominator tree
// with Dom.
func (c *Cache) Loops(f *ir.Function) *LoopForest {
	c.sync(f)
	if c.loops == nil {
		c.loops = LoopsWithDom(f, c.Dom(f))
	}
	return c.loops
}

// Liveness returns (possibly cached) ComputeLiveness(f).
func (c *Cache) Liveness(f *ir.Function) *Liveness {
	c.sync(f)
	if c.live == nil {
		c.live = ComputeLiveness(f)
	}
	return c.live
}
