package analysis

import (
	"testing"

	"repro/internal/ir"
)

// buildLoopNest creates the CFG of Figure 1a (simplified):
//
//	A -> B
//	B -> CD          (outer loop header is B)
//	CD -> CD | E     (inner loop 1)
//	E -> FG
//	FG -> FG | H     (inner loop 2)
//	H -> B | I       (outer back edge)
//	I: ret
func buildLoopNest(t testing.TB) (*ir.Function, map[string]*ir.Block) {
	f := ir.NewFunction("nest", 1)
	names := []string{"A", "B", "CD", "E", "FG", "H", "I"}
	bs := map[string]*ir.Block{}
	for _, n := range names {
		bs[n] = f.NewBlock(n)
	}
	bd := ir.NewBuilder(f, bs["A"])
	n := f.Params[0]
	bd.Br(bs["B"])

	bd.SetBlock(bs["B"])
	i := bd.Const(0)
	bd.Br(bs["CD"])

	bd.SetBlock(bs["CD"])
	bd.BinInto(ir.OpAdd, i, i, bd.Const(1))
	c1 := bd.Bin(ir.OpCmpLT, i, n)
	bd.CondBr(c1, bs["CD"], bs["E"])

	bd.SetBlock(bs["E"])
	j := bd.Const(0)
	bd.Br(bs["FG"])

	bd.SetBlock(bs["FG"])
	bd.BinInto(ir.OpAdd, j, j, bd.Const(1))
	c2 := bd.Bin(ir.OpCmpLT, j, n)
	bd.CondBr(c2, bs["FG"], bs["H"])

	bd.SetBlock(bs["H"])
	c3 := bd.Bin(ir.OpCmpLT, i, j)
	bd.CondBr(c3, bs["B"], bs["I"])

	bd.SetBlock(bs["I"])
	bd.Ret(i)

	if err := ir.Verify(f); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f, bs
}

func TestReversePostorder(t *testing.T) {
	f, bs := buildLoopNest(t)
	rpo := ReversePostorder(f)
	if len(rpo) != 7 {
		t.Fatalf("rpo has %d blocks, want 7", len(rpo))
	}
	if rpo[0] != bs["A"] {
		t.Fatal("rpo must start at entry")
	}
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// Forward-edge order constraints.
	for _, pair := range [][2]string{{"A", "B"}, {"B", "CD"}, {"CD", "E"}, {"E", "FG"}, {"FG", "H"}, {"H", "I"}} {
		if pos[bs[pair[0]]] >= pos[bs[pair[1]]] {
			t.Errorf("%s must precede %s in rpo", pair[0], pair[1])
		}
	}
}

func TestDominators(t *testing.T) {
	f, bs := buildLoopNest(t)
	dom := Dominators(f)
	wantIdom := map[string]string{
		"B": "A", "CD": "B", "E": "CD", "FG": "E", "H": "FG", "I": "H",
	}
	for b, w := range wantIdom {
		if got := dom.Idom(bs[b]); got != bs[w] {
			t.Errorf("idom(%s) = %v, want %s", b, got, w)
		}
	}
	if dom.Idom(bs["A"]) != nil {
		t.Error("entry idom must be nil")
	}
	if !dom.Dominates(bs["B"], bs["I"]) {
		t.Error("B dominates I")
	}
	if dom.Dominates(bs["E"], bs["CD"]) {
		t.Error("E must not dominate CD")
	}
	if !dom.Dominates(bs["CD"], bs["CD"]) {
		t.Error("dominance is reflexive")
	}
}

func TestLoops(t *testing.T) {
	f, bs := buildLoopNest(t)
	lf := Loops(f)
	if len(lf.Top) != 1 {
		t.Fatalf("want 1 top-level loop, got %d", len(lf.Top))
	}
	outer := lf.Top[0]
	if outer.Header != bs["B"] {
		t.Fatalf("outer header = %v", outer.Header)
	}
	if outer.Depth != 1 {
		t.Fatalf("outer depth = %d", outer.Depth)
	}
	if len(outer.Children) != 2 {
		t.Fatalf("outer loop should contain 2 inner loops, got %d", len(outer.Children))
	}
	cd := lf.ByHeader(bs["CD"])
	fg := lf.ByHeader(bs["FG"])
	if cd == nil || fg == nil {
		t.Fatal("missing inner loops")
	}
	if cd.Depth != 2 || fg.Depth != 2 {
		t.Error("inner loops must be depth 2")
	}
	if cd.Parent != outer || fg.Parent != outer {
		t.Error("inner loop parents wrong")
	}
	if !outer.Contains(bs["H"]) || !outer.Contains(bs["CD"]) {
		t.Error("outer loop body wrong")
	}
	if outer.Contains(bs["I"]) || outer.Contains(bs["A"]) {
		t.Error("outer loop body too big")
	}
	if cd.Contains(bs["E"]) {
		t.Error("CD loop is self-loop only")
	}
	if !lf.IsBackEdge(bs["H"], bs["B"]) {
		t.Error("H->B is a back edge")
	}
	if lf.IsBackEdge(bs["B"], bs["CD"]) {
		t.Error("B->CD is not a back edge")
	}
	if !lf.IsHeader(bs["FG"]) || lf.IsHeader(bs["E"]) {
		t.Error("IsHeader wrong")
	}
	if lf.InnermostLoop(bs["CD"]) != cd {
		t.Error("InnermostLoop(CD) should be the inner loop")
	}
	if lf.InnermostLoop(bs["E"]) != outer {
		t.Error("InnermostLoop(E) should be the outer loop")
	}
	exits := cd.Exits()
	if len(exits) != 1 || exits[0] != bs["E"] {
		t.Errorf("CD exits = %v", exits)
	}
}

func TestSelfLoopAndUnreachable(t *testing.T) {
	f := ir.NewFunction("f", 1)
	e := f.NewBlock("entry")
	l := f.NewBlock("loop")
	x := f.NewBlock("exit")
	dead := f.NewBlock("dead")
	bd := ir.NewBuilder(f, e)
	bd.Br(l)
	bd.SetBlock(l)
	i := bd.Const(0)
	c := bd.Bin(ir.OpCmpLT, i, f.Params[0])
	bd.CondBr(c, l, x)
	bd.SetBlock(x)
	bd.Ret(i)
	bd.SetBlock(dead)
	bd.Br(l)

	rpo := ReversePostorder(f)
	if len(rpo) != 3 {
		t.Fatalf("unreachable block included: %v", rpo)
	}
	lf := Loops(f)
	loop := lf.ByHeader(l)
	if loop == nil || len(loop.Blocks) != 1 {
		t.Fatal("self-loop body must be the header only")
	}
	if len(loop.Latches) != 1 || loop.Latches[0] != l {
		t.Fatal("self-loop latch is itself")
	}
}

func TestRegSet(t *testing.T) {
	s := NewRegSet(130)
	if s.Has(5) {
		t.Fatal("empty set")
	}
	if !s.Add(5) || s.Add(5) {
		t.Fatal("Add change reporting wrong")
	}
	s.Add(129)
	if !s.Has(129) || s.Count() != 2 {
		t.Fatal("high-bit membership broken")
	}
	m := s.Members()
	if len(m) != 2 || m[0] != 5 || m[1] != 129 {
		t.Fatalf("Members = %v", m)
	}
	s.Remove(5)
	if s.Has(5) || s.Count() != 1 {
		t.Fatal("Remove broken")
	}
	o := NewRegSet(130)
	o.Add(7)
	if !s.UnionWith(o) || !s.Has(7) {
		t.Fatal("UnionWith broken")
	}
	if s.UnionWith(o) {
		t.Fatal("UnionWith should report no change")
	}
	if s.Has(ir.NoReg) || s.Add(ir.NoReg) {
		t.Fatal("NoReg must be ignored")
	}
	c := s.Copy()
	c.Remove(7)
	if !s.Has(7) {
		t.Fatal("Copy must be independent")
	}
}

func TestLiveness(t *testing.T) {
	// entry: c = p0 < p1 ; br c? left:right
	// left:  x = p0 + p1 ; br join
	// right: x = p0 - p1 ; br join
	// join:  ret x
	f := ir.NewFunction("f", 2)
	entry := f.NewBlock("entry")
	left := f.NewBlock("left")
	right := f.NewBlock("right")
	join := f.NewBlock("join")
	x := f.NewReg()
	bd := ir.NewBuilder(f, entry)
	c := bd.Bin(ir.OpCmpLT, f.Params[0], f.Params[1])
	bd.CondBr(c, left, right)
	bd.SetBlock(left)
	bd.BinInto(ir.OpAdd, x, f.Params[0], f.Params[1])
	bd.Br(join)
	bd.SetBlock(right)
	bd.BinInto(ir.OpSub, x, f.Params[0], f.Params[1])
	bd.Br(join)
	bd.SetBlock(join)
	bd.Ret(x)

	lv := ComputeLiveness(f)
	if !lv.In[entry].Has(f.Params[0]) || !lv.In[entry].Has(f.Params[1]) {
		t.Error("params live into entry")
	}
	if !lv.Out[left].Has(x) || !lv.Out[right].Has(x) {
		t.Error("x live out of arms")
	}
	if lv.Out[join].Has(x) {
		t.Error("x dead after join")
	}
	if lv.In[join].Has(f.Params[0]) {
		t.Error("p0 dead at join")
	}
	lw := LiveOutWrites(left, lv)
	if len(lw) != 1 || lw[0] != x {
		t.Errorf("LiveOutWrites(left) = %v", lw)
	}
	reads := BlockReads(join, lv)
	if len(reads) != 1 || reads[0] != x {
		t.Errorf("BlockReads(join) = %v", reads)
	}
}

func TestLivenessPredicatedDefDoesNotKill(t *testing.T) {
	// entry: v = const 1 [pred p:t]; ret v
	// v is upward-exposed despite the (predicated) def, because the
	// def may not execute.
	f := ir.NewFunction("f", 2)
	b := f.NewBlock("entry")
	v := f.Params[0]
	p := f.Params[1]
	b.Append(&ir.Instr{Op: ir.OpConst, Dst: v, A: ir.NoReg, B: ir.NoReg, Pred: p, PredSense: true, Imm: 1})
	ir.NewBuilder(f, b).Ret(v)
	lv := ComputeLiveness(f)
	if !lv.In[b].Has(v) {
		t.Fatal("predicated def must not kill v")
	}
}

func TestLivenessLoop(t *testing.T) {
	f := ir.NewFunction("f", 1)
	e := f.NewBlock("entry")
	l := f.NewBlock("loop")
	x := f.NewBlock("exit")
	bd := ir.NewBuilder(f, e)
	i := bd.Const(0)
	s := bd.Const(0)
	bd.Br(l)
	bd.SetBlock(l)
	bd.BinInto(ir.OpAdd, s, s, i)
	one := bd.Const(1)
	bd.BinInto(ir.OpAdd, i, i, one)
	c := bd.Bin(ir.OpCmpLT, i, f.Params[0])
	bd.CondBr(c, l, x)
	bd.SetBlock(x)
	bd.Ret(s)
	lv := ComputeLiveness(f)
	if !lv.In[l].Has(i) || !lv.In[l].Has(s) || !lv.In[l].Has(f.Params[0]) {
		t.Error("loop-carried values live into loop")
	}
	if !lv.Out[l].Has(s) || !lv.Out[l].Has(i) {
		t.Error("loop-carried values live out of latch")
	}
	if lv.Out[x].Count() != 0 {
		t.Error("nothing live out of exit")
	}
}

func TestEdgeCountAndReachable(t *testing.T) {
	f, bs := buildLoopNest(t)
	if n := EdgeCount(f); n != 9 {
		t.Errorf("EdgeCount = %d, want 9", n)
	}
	r := Reachable(f)
	if len(r) != 7 || !r[bs["I"]] {
		t.Errorf("Reachable wrong: %d blocks", len(r))
	}
}
