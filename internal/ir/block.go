package ir

import "fmt"

// Block is a node of a function's control-flow graph. A basic block
// has straight-line unpredicated code ending in branches; after
// hyperblock formation a block may contain arbitrarily predicated
// instructions with several predicated exit branches, of which exactly
// one fires per execution.
type Block struct {
	// ID is unique within the function and stable across CFG edits.
	ID int
	// Name is a human-readable label; duplicated blocks get derived
	// names ("B3.tail1").
	Name string
	// Instrs is the ordered instruction list. The order is a
	// topological order of the block's data-dependence graph.
	Instrs []*Instr

	// Fn is the function owning the block.
	Fn *Function

	// Hyper marks blocks produced by hyperblock formation (merged
	// from more than one basic block or otherwise finalized).
	Hyper bool
}

// Branches returns the block's exit branch instructions in order.
func (b *Block) Branches() []*Instr {
	var out []*Instr
	for _, in := range b.Instrs {
		if in.Op == OpBr {
			out = append(out, in)
		}
	}
	return out
}

// Succs returns the distinct successor blocks, in first-branch order.
func (b *Block) Succs() []*Block {
	return b.SuccsAppend(nil)
}

// SuccsAppend appends the distinct successor blocks to buf (which may
// be nil) in first-branch order and returns the extended slice. Hot
// callers pass a reused buffer to avoid the per-call allocation of
// Succs. Deduplication is a linear scan: blocks have a handful of
// distinct successors at most.
func (b *Block) SuccsAppend(buf []*Block) []*Block {
	base := len(buf)
	for _, in := range b.Instrs {
		if in.Op != OpBr || in.Target == nil {
			continue
		}
		dup := false
		for _, s := range buf[base:] {
			if s == in.Target {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, in.Target)
		}
	}
	return buf
}

// HasCall reports whether the block contains a call instruction.
func (b *Block) HasCall() bool {
	for _, in := range b.Instrs {
		if in.Op == OpCall {
			return true
		}
	}
	return false
}

// HasRet reports whether the block contains a return.
func (b *Block) HasRet() bool {
	for _, in := range b.Instrs {
		if in.Op == OpRet {
			return true
		}
	}
	return false
}

// Terminated reports whether the block ends in at least one exit
// (branch or return) — i.e. control cannot fall off its end.
func (b *Block) Terminated() bool {
	for _, in := range b.Instrs {
		if in.Op == OpBr || in.Op == OpRet {
			return true
		}
	}
	return false
}

// dirty bumps the owning function's analysis version (see
// Function.Version). Unattached clone blocks (nil Fn) skip it.
func (b *Block) dirty() {
	if b.Fn != nil {
		b.Fn.touch()
	}
}

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	b.Instrs = append(b.Instrs, in)
	b.dirty()
	return in
}

// InsertBefore inserts in ahead of position idx.
func (b *Block) InsertBefore(idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
	b.dirty()
}

// RemoveAt deletes the instruction at idx.
func (b *Block) RemoveAt(idx int) {
	copy(b.Instrs[idx:], b.Instrs[idx+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	b.dirty()
}

// RetargetBranches redirects every branch aimed at old to point at new.
// It returns the number of branches rewritten.
func (b *Block) RetargetBranches(old, new *Block) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op == OpBr && in.Target == old {
			in.Target = new
			n++
		}
	}
	if n > 0 {
		b.dirty()
	}
	return n
}

// CountOp returns how many instructions with the given opcode the
// block contains.
func (b *Block) CountOp(op Op) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op == op {
			n++
		}
	}
	return n
}

// MemOps returns the number of loads plus stores in the block.
func (b *Block) MemOps() int {
	return b.CountOp(OpLoad) + b.CountOp(OpStore)
}

// String returns "name(id)".
func (b *Block) String() string {
	if b == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s(b%d)", b.Name, b.ID)
}

// Clone deep-copies the block's instructions into a new block owned by
// the same function but NOT registered in its block list. Branch
// targets still point at the original targets. The clone shares no
// instruction storage with the original.
func (b *Block) Clone(name string) *Block {
	nb := &Block{
		ID:    -1,
		Name:  name,
		Fn:    b.Fn,
		Hyper: b.Hyper,
	}
	nb.Instrs = make([]*Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		nb.Instrs[i] = in.Clone()
	}
	return nb
}
