package ir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of a function:
//
//   - every block is terminated (ends in branches and/or a return);
//   - no instruction follows an unpredicated branch or a return
//     (such instructions would be unreachable in sequential order);
//   - branch targets are blocks registered in the function;
//   - register operands are within the allocated register count;
//   - binary/unary operand presence matches the opcode;
//   - predicated branch sets cover an exit (best-effort: if the block
//     has any unpredicated branch, or a branch pair on complementary
//     senses of one register, it is considered covered — richer
//     predicate structures from formation are accepted as long as a
//     branch exists);
//   - call instructions name functions that exist (when the function
//     belongs to a program).
func Verify(f *Function) error {
	if len(f.Blocks) == 0 {
		return errors.New("ir: function has no blocks")
	}
	// The registered blocks by ID, over the range of IDs in use: a
	// branch target is registered exactly when its ID's slot holds it.
	lo, hi := f.Blocks[0].ID, f.Blocks[0].ID
	for _, b := range f.Blocks {
		lo, hi = min(lo, b.ID), max(hi, b.ID)
	}
	reg := registry{lo: lo, byID: make([]*Block, hi-lo+1)}
	for _, b := range f.Blocks {
		switch reg.byID[b.ID-lo] {
		case nil:
			reg.byID[b.ID-lo] = b
		case b:
			return fmt.Errorf("ir: block %s registered twice", b)
		default:
			return fmt.Errorf("ir: duplicate block id %d", b.ID)
		}
	}
	var buf []Reg
	for _, b := range f.Blocks {
		var err error
		if buf, err = verifyBlock(f, b, reg, buf); err != nil {
			return fmt.Errorf("ir: %s.%s: %w", f.Name, b.Name, err)
		}
	}
	return nil
}

// registry holds a function's blocks by ID, from ID lo.
type registry struct {
	lo   int
	byID []*Block
}

func (r registry) has(b *Block) bool {
	i := b.ID - r.lo
	return i >= 0 && i < len(r.byID) && r.byID[i] == b
}

func verifyBlock(f *Function, b *Block, reg registry, buf []Reg) ([]Reg, error) {
	if !b.Terminated() {
		return buf, errors.New("block not terminated")
	}
	dead := false
	for i, in := range b.Instrs {
		if dead {
			return buf, fmt.Errorf("instruction %d follows an unconditional exit", i)
		}
		switch in.Op {
		case OpInvalid:
			return buf, fmt.Errorf("instruction %d is invalid", i)
		case OpBr:
			if in.Target == nil {
				return buf, fmt.Errorf("branch %d has nil target", i)
			}
			if !reg.has(in.Target) {
				return buf, fmt.Errorf("branch %d targets foreign block %s", i, in.Target)
			}
			if !in.Predicated() {
				dead = true
			}
		case OpRet:
			if !in.Predicated() {
				dead = true
			}
		case OpCall:
			if f.Prog != nil && f.Prog.Func(in.Callee) == nil && !f.Prog.Externs[in.Callee] {
				return buf, fmt.Errorf("call %d targets unknown function %q", i, in.Callee)
			}
		}
		if in.Op.IsBinary() && (!in.A.Valid() || !in.B.Valid()) {
			return buf, fmt.Errorf("binary op %s at %d missing operand", in.Op, i)
		}
		if in.Op.IsUnary() && !in.A.Valid() {
			return buf, fmt.Errorf("unary op %s at %d missing operand", in.Op, i)
		}
		if in.Op.HasDst() && in.Op != OpCall && !in.Dst.Valid() {
			return buf, fmt.Errorf("op %s at %d missing destination", in.Op, i)
		}
		buf = in.Uses(buf)
		for _, r := range buf {
			if int(r) >= f.NumRegs() {
				return buf, fmt.Errorf("instruction %d reads unallocated register %s", i, r)
			}
		}
		if d := in.Def(); d.Valid() && int(d) >= f.NumRegs() {
			return buf, fmt.Errorf("instruction %d writes unallocated register %s", i, d)
		}
	}
	return buf, nil
}

// VerifyProgram verifies every function in the program.
func VerifyProgram(p *Program) error {
	for _, f := range p.OrderedFuncs() {
		if err := Verify(f); err != nil {
			return err
		}
	}
	return nil
}
