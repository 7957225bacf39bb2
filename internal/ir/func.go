package ir

import "fmt"

// Function is a procedure: a CFG of blocks over function-scoped
// virtual registers. Blocks[0] is the entry block.
type Function struct {
	Name string
	// Params are the registers holding incoming arguments, in order.
	Params []Reg
	// Blocks lists the function's blocks. The entry is Blocks[0].
	Blocks []*Block

	nextReg   Reg
	nextBlock int
	nextBrID  int32

	// version counts code mutations (see Version). Structural edits
	// through Function/Block methods bump it automatically; passes that
	// rewrite instructions in place must call MarkDirty. issued is the
	// highest version ever handed out: Rollback moves version back, so
	// bumps draw from issued to never reuse a version.
	version uint64
	issued  uint64

	// Prog is the owning program (set by Program.AddFunc).
	Prog *Program
}

// Version returns the function's mutation counter. Analyses cached
// against a (function, version) pair stay valid exactly while the
// version is unchanged: every register allocation, block edit, and
// in-place instruction rewrite advances it (the latter via MarkDirty
// at the mutation site). Spurious bumps only cost a recomputation;
// a missed bump would serve stale analyses, so mutators err toward
// bumping. Rollback is the one way back: it returns to a marked
// version once the code is again what it was at that version.
func (f *Function) Version() uint64 { return f.version }

// MarkDirty records an in-place code mutation that did not go through
// a Function/Block editing method (e.g. operand rewriting inside an
// optimization pass), invalidating cached analyses.
func (f *Function) MarkDirty() { f.touch() }

// touch advances the mutation version to one never used before.
func (f *Function) touch() {
	f.issued++
	f.version = f.issued
}

// Mark is a saved position of a function's register and branch-ID
// counters and its mutation version, plus its block count for
// Rollback's check (see Function.Mark).
type Mark struct {
	nextReg   Reg
	nextBrID  int32
	nextBlock int
	nblocks   int
	version   uint64
}

// Mark saves the function's counters and version before a trial edit
// that Rollback may undo.
func (f *Function) Mark() Mark {
	return Mark{nextReg: f.nextReg, nextBrID: f.nextBrID,
		nextBlock: f.nextBlock, nblocks: len(f.Blocks), version: f.version}
}

// Rollback restores the counters and version saved by m. The caller
// must already have restored every instruction the trial edit changed,
// and the edit must not have added or removed blocks (Rollback panics
// if it did): the function is then identical to its state at m, so
// analyses cached against that version are valid again. Versions
// handed out during the trial are never reused.
func (f *Function) Rollback(m Mark) {
	if f.nextBlock != m.nextBlock || len(f.Blocks) != m.nblocks {
		panic("ir: Rollback after a trial edit added or removed blocks")
	}
	f.nextReg, f.nextBrID, f.version = m.nextReg, m.nextBrID, m.version
}

// BlockIDBound returns an exclusive upper bound on the block IDs in
// use, for ID-indexed side tables.
func (f *Function) BlockIDBound() int { return f.nextBlock }

// NewFunction creates an empty function with nparams parameter
// registers.
func NewFunction(name string, nparams int) *Function {
	f := &Function{Name: name}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, f.NewReg())
	}
	return f
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := f.nextReg
	f.nextReg++
	f.touch() // register count sizes liveness sets
	return r
}

// NumRegs returns the number of virtual registers allocated so far.
func (f *Function) NumRegs() int { return int(f.nextReg) }

// NewBrID allocates a fresh non-zero branch identity (see
// Instr.BrID).
func (f *Function) NewBrID() int32 {
	f.nextBrID++
	return f.nextBrID
}

// NewBlock creates a block, registers it in the function, and returns
// it.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlock, Name: name, Fn: f}
	f.nextBlock++
	f.touch()
	f.Blocks = append(f.Blocks, b)
	return b
}

// AdoptBlock registers a block created by Block.Clone, assigning it a
// fresh ID.
func (f *Function) AdoptBlock(b *Block) {
	b.ID = f.nextBlock
	f.nextBlock++
	f.touch()
	b.Fn = f
	f.Blocks = append(f.Blocks, b)
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// RemoveBlock unlinks b from the function's block list. The caller is
// responsible for having removed or retargeted all branches to b.
// Removing the entry block is not allowed.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			if i == 0 {
				panic("ir: cannot remove entry block")
			}
			copy(f.Blocks[i:], f.Blocks[i+1:])
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			f.touch()
			return
		}
	}
}

// Preds computes the predecessor map of the CFG: for each block, the
// list of blocks with at least one branch to it (each predecessor
// appears once even with multiple branches).
func (f *Function) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		if _, ok := preds[b]; !ok {
			preds[b] = nil
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// NumPredEdges counts CFG edges into b: every branch instruction
// targeting b counts separately (two predicated branches from one
// block are two edges), plus one if b is the function entry (the
// implicit call edge).
func (f *Function) NumPredEdges(b *Block) int {
	n := 0
	for _, p := range f.Blocks {
		for _, in := range p.Instrs {
			if in.Op == OpBr && in.Target == b {
				n++
			}
		}
	}
	if b == f.Entry() {
		n++
	}
	return n
}

// BlockByName returns the first block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// BlockByID returns the block with the given ID, or nil.
func (f *Function) BlockByID(id int) *Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// RemoveUnreachable deletes blocks not reachable from the entry and
// returns how many were removed.
func (f *Function) RemoveUnreachable() int {
	if len(f.Blocks) == 0 {
		return 0
	}
	reach := make([]bool, f.nextBlock)
	stack := make([]*Block, 0, len(f.Blocks))
	stack = append(stack, f.Entry())
	var succs []*Block
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[b.ID] {
			continue
		}
		reach[b.ID] = true
		succs = b.SuccsAppend(succs[:0])
		for _, s := range succs {
			if !reach[s.ID] {
				stack = append(stack, s)
			}
		}
	}
	kept := f.Blocks[:0]
	removed := 0
	for _, b := range f.Blocks {
		if reach[b.ID] {
			kept = append(kept, b)
		} else {
			removed++
		}
	}
	f.Blocks = kept
	if removed > 0 {
		f.touch()
	}
	return removed
}

// Size returns the total static instruction count of the function.
func (f *Function) Size() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Program is a whole compiled unit: functions plus a flat global
// memory image. Memory is word-addressed (int64 words).
type Program struct {
	Funcs map[string]*Function
	// FuncOrder preserves definition order for deterministic printing
	// and iteration.
	FuncOrder []string

	// Globals maps a global array name to its [address, size] in
	// words.
	Globals map[string]GlobalDef
	// MemSize is the total words of global memory.
	MemSize int64
	// InitData holds initial values for memory addresses (sparse).
	InitData map[int64]int64

	// Externs names callees provided by the execution environment
	// rather than defined in the program (e.g. the print builtin).
	Externs map[string]bool
}

// GlobalDef describes a global array's placement.
type GlobalDef struct {
	Addr int64
	Size int64
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{
		Funcs:    map[string]*Function{},
		Globals:  map[string]GlobalDef{},
		InitData: map[int64]int64{},
		Externs:  map[string]bool{},
	}
}

// AddFunc registers a function; it panics on duplicate names.
func (p *Program) AddFunc(f *Function) {
	if _, dup := p.Funcs[f.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate function %q", f.Name))
	}
	f.Prog = p
	p.Funcs[f.Name] = f
	p.FuncOrder = append(p.FuncOrder, f.Name)
}

// AddGlobal reserves size words of memory for name and returns its
// address.
func (p *Program) AddGlobal(name string, size int64) int64 {
	if _, dup := p.Globals[name]; dup {
		panic(fmt.Sprintf("ir: duplicate global %q", name))
	}
	addr := p.MemSize
	p.Globals[name] = GlobalDef{Addr: addr, Size: size}
	p.MemSize += size
	return addr
}

// Func returns the named function or nil.
func (p *Program) Func(name string) *Function { return p.Funcs[name] }

// OrderedFuncs returns the functions in definition order.
func (p *Program) OrderedFuncs() []*Function {
	out := make([]*Function, 0, len(p.FuncOrder))
	for _, n := range p.FuncOrder {
		out = append(out, p.Funcs[n])
	}
	return out
}

// Size returns the total static instruction count of the program.
func (p *Program) Size() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.Size()
	}
	return n
}

// NumBlocks returns the total static block count of the program.
func (p *Program) NumBlocks() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Blocks)
	}
	return n
}
