package ir

import (
	"strings"
	"testing"
)

func TestFormatInstrAllShapes(t *testing.T) {
	f := NewFunction("f", 3)
	b := f.NewBlock("entry")
	e := f.NewBlock("exit")
	cases := []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: 0, A: NoReg, B: NoReg, Pred: NoReg, Imm: -7}, "const v0, -7"},
		{&Instr{Op: OpMov, Dst: 0, A: 1, B: NoReg, Pred: NoReg}, "mov v0, v1"},
		{&Instr{Op: OpNeg, Dst: 0, A: 1, B: NoReg, Pred: NoReg}, "neg v0, v1"},
		{&Instr{Op: OpNot, Dst: 0, A: 1, B: NoReg, Pred: NoReg}, "not v0, v1"},
		{&Instr{Op: OpShl, Dst: 0, A: 1, B: 2, Pred: NoReg}, "shl v0, v1, v2"},
		{&Instr{Op: OpLoad, Dst: 0, A: 1, B: NoReg, Pred: NoReg, Imm: 16}, "load v0, [v1+16]"},
		{&Instr{Op: OpStore, Dst: NoReg, A: 1, B: 2, Pred: NoReg, Imm: 4}, "store [v1+4], v2"},
		{&Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, Pred: NoReg, Target: e}, "br exit"},
		{&Instr{Op: OpCall, Dst: 0, A: NoReg, B: NoReg, Pred: NoReg, Callee: "g", Args: []Reg{1, 2}}, "call v0, g(v1, v2)"},
		{&Instr{Op: OpRet, Dst: NoReg, A: 0, B: NoReg, Pred: NoReg}, "ret v0"},
		{&Instr{Op: OpNullW, Dst: 0, A: NoReg, B: NoReg, Pred: NoReg}, "nullw v0"},
	}
	_ = b
	for _, tc := range cases {
		got := FormatInstr(tc.in)
		if !strings.Contains(got, tc.want) {
			t.Errorf("FormatInstr(%v) = %q, want containing %q", tc.in.Op, got, tc.want)
		}
	}
}

func TestVerifyDuplicateBlockID(t *testing.T) {
	f := NewFunction("f", 0)
	a := f.NewBlock("a")
	NewBuilder(f, a).Ret(NoReg)
	dup := a.Clone("dup")
	dup.ID = a.ID // duplicate ID
	dup.Fn = f
	f.Blocks = append(f.Blocks, dup)
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "duplicate block id") {
		t.Fatalf("want duplicate-id error, got %v", err)
	}
}

func TestVerifyBlockRegisteredTwice(t *testing.T) {
	f := NewFunction("f", 0)
	a := f.NewBlock("a")
	NewBuilder(f, a).Ret(NoReg)
	f.Blocks = append(f.Blocks, a)
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want registered-twice error, got %v", err)
	}
}

func TestVerifyOperandShapeErrors(t *testing.T) {
	mk := func(in *Instr) *Function {
		f := NewFunction("f", 2)
		b := f.NewBlock("entry")
		b.Append(in)
		NewBuilder(f, b).Ret(NoReg)
		return f
	}
	cases := []*Instr{
		{Op: OpAdd, Dst: 0, A: 0, B: NoReg, Pred: NoReg},           // binary missing B
		{Op: OpNeg, Dst: 0, A: NoReg, B: NoReg, Pred: NoReg},       // unary missing A
		{Op: OpConst, Dst: NoReg, A: NoReg, B: NoReg, Pred: NoReg}, // missing dst
		{Op: OpAdd, Dst: 0, A: 0, B: 99, Pred: NoReg},              // unallocated operand
		{Op: OpConst, Dst: 99, A: NoReg, B: NoReg, Pred: NoReg},    // unallocated dst
		{Op: OpInvalid},
		{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg, Pred: NoReg}, // nil target
	}
	for i, in := range cases {
		if err := Verify(mk(in)); err == nil {
			t.Errorf("case %d (%v) should fail verification", i, in.Op)
		}
	}
}

func TestVerifyProgramPropagates(t *testing.T) {
	p := NewProgram()
	f := NewFunction("bad", 0)
	f.NewBlock("entry") // unterminated
	p.AddFunc(f)
	if err := VerifyProgram(p); err == nil {
		t.Fatal("VerifyProgram should propagate function errors")
	}
}

func TestVerifyEmptyFunction(t *testing.T) {
	if err := Verify(NewFunction("empty", 0)); err == nil {
		t.Fatal("function with no blocks must fail")
	}
}

func TestRemoveBlockPanicsOnEntry(t *testing.T) {
	f := NewFunction("f", 0)
	e := f.NewBlock("entry")
	NewBuilder(f, e).Ret(NoReg)
	defer func() {
		if recover() == nil {
			t.Fatal("removing entry must panic")
		}
	}()
	f.RemoveBlock(e)
}

func TestBlockByHelpers(t *testing.T) {
	f := NewFunction("f", 0)
	a := f.NewBlock("a")
	NewBuilder(f, a).Ret(NoReg)
	if f.BlockByName("a") != a || f.BlockByName("zzz") != nil {
		t.Fatal("BlockByName wrong")
	}
	if f.BlockByID(a.ID) != a || f.BlockByID(999) != nil {
		t.Fatal("BlockByID wrong")
	}
	if f.Entry() != a {
		t.Fatal("Entry wrong")
	}
	var nilf Function
	if nilf.Entry() != nil {
		t.Fatal("empty function entry must be nil")
	}
}

func TestHasRetTerminatedBranches(t *testing.T) {
	f := NewFunction("f", 1)
	b := f.NewBlock("entry")
	e := f.NewBlock("exit")
	bd := NewBuilder(f, b)
	bd.CondBr(f.Params[0], e, e) // degenerate both-same target
	bd.SetBlock(e)
	bd.Ret(f.Params[0])
	if b.HasRet() || !e.HasRet() {
		t.Fatal("HasRet wrong")
	}
	if len(b.Branches()) != 2 {
		t.Fatal("Branches should list both predicated exits")
	}
	if len(b.Succs()) != 1 {
		t.Fatal("Succs must deduplicate")
	}
	if b.HasCall() {
		t.Fatal("no call present")
	}
}

func TestNewBrIDMonotonic(t *testing.T) {
	f := NewFunction("f", 0)
	a, b := f.NewBrID(), f.NewBrID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("BrIDs must be fresh and non-zero: %d, %d", a, b)
	}
	cl := CloneFunction(f)
	if c := cl.NewBrID(); c <= b {
		t.Fatalf("clone must continue the BrID sequence: %d after %d", c, b)
	}
}

func TestProgramSizeCounters(t *testing.T) {
	p := NewProgram()
	f := NewFunction("f", 0)
	b := f.NewBlock("entry")
	bd := NewBuilder(f, b)
	bd.Const(1)
	bd.Ret(NoReg)
	p.AddFunc(f)
	if p.Size() != 2 || p.NumBlocks() != 1 {
		t.Fatalf("Size=%d NumBlocks=%d", p.Size(), p.NumBlocks())
	}
}

// Rollback returns the counters and the version to the mark, and a
// later bump never reissues a version handed out before the rollback.
func TestRollbackNeverReusesAVersion(t *testing.T) {
	f := NewFunction("f", 1)
	f.NewBlock("entry")
	m := f.Mark()
	v0, regs, brID := f.Version(), f.NumRegs(), CloneFunction(f).NewBrID()
	f.NewReg()
	f.NewBrID()
	seen := f.Version()
	f.Rollback(m)
	if f.Version() != v0 || f.NumRegs() != regs || CloneFunction(f).NewBrID() != brID {
		t.Fatalf("after Rollback: version %d regs %d next BrID %d, want %d %d %d",
			f.Version(), f.NumRegs(), CloneFunction(f).NewBrID(), v0, regs, brID)
	}
	if f.MarkDirty(); f.Version() == seen || f.Version() == v0 {
		t.Fatalf("bump after Rollback reissued version %d", f.Version())
	}

	m = f.Mark()
	f.NewBlock("added")
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback accepted a trial edit that added a block")
		}
	}()
	f.Rollback(m)
}
