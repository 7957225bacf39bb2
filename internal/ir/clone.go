package ir

// CloneFunction deep-copies a function: all blocks and instructions
// are fresh, branch targets are remapped onto the copied blocks, and
// register numbering is preserved. The clone is not added to any
// program.
//
// The copy is arena-backed: all cloned blocks, instructions, and
// argument slices live in a handful of flat allocations sized in one
// counting pass, so cloning costs O(1) allocations instead of one per
// instruction. Argument subslices are capped (three-index slices), so
// a later append on a cloned instruction reallocates instead of
// scribbling over its arena neighbour; instruction pointers are stable
// because the arenas are never grown.
func CloneFunction(f *Function) *Function {
	nf := &Function{
		Name:      f.Name,
		Params:    append([]Reg(nil), f.Params...),
		nextReg:   f.nextReg,
		nextBlock: f.nextBlock,
		nextBrID:  f.nextBrID,
		version:   f.version,
		issued:    f.issued,
		Prog:      f.Prog,
	}
	nInstr, nArgs := 0, 0
	for _, b := range f.Blocks {
		nInstr += len(b.Instrs)
		for _, in := range b.Instrs {
			nArgs += len(in.Args)
		}
	}
	blockArena := make([]Block, len(f.Blocks))
	instrArena := make([]Instr, nInstr)
	ptrArena := make([]*Instr, nInstr)
	argArena := make([]Reg, nArgs)
	m := make(map[*Block]*Block, len(f.Blocks))
	nf.Blocks = make([]*Block, 0, len(f.Blocks))
	ii, ai := 0, 0
	for bi, b := range f.Blocks {
		nb := &blockArena[bi]
		*nb = Block{ID: b.ID, Name: b.Name, Fn: nf, Hyper: b.Hyper}
		ptrs := ptrArena[ii : ii+len(b.Instrs) : ii+len(b.Instrs)]
		for i, in := range b.Instrs {
			ni := &instrArena[ii]
			*ni = *in
			if n := len(in.Args); n > 0 {
				args := argArena[ai : ai+n : ai+n]
				copy(args, in.Args)
				ni.Args = args
				ai += n
			} else {
				ni.Args = nil
			}
			ptrs[i] = ni
			ii++
		}
		nb.Instrs = ptrs
		nf.Blocks = append(nf.Blocks, nb)
		m[b] = nb
	}
	for _, nb := range nf.Blocks {
		RemapTargets(nb, m)
	}
	return nf
}

// RemapTargets rewrites every branch in b whose target appears in m to
// the mapped block. Targets absent from m are left alone.
func RemapTargets(b *Block, m map[*Block]*Block) {
	for _, in := range b.Instrs {
		if in.Op == OpBr {
			if nt, ok := m[in.Target]; ok {
				in.Target = nt
			}
		}
	}
}

// CloneProgram deep-copies a program, including the global memory
// layout and all functions.
func CloneProgram(p *Program) *Program {
	np := NewProgram()
	np.MemSize = p.MemSize
	for name, g := range p.Globals {
		np.Globals[name] = g
	}
	for addr, v := range p.InitData {
		np.InitData[addr] = v
	}
	for name := range p.Externs {
		np.Externs[name] = true
	}
	for _, name := range p.FuncOrder {
		nf := CloneFunction(p.Funcs[name])
		np.AddFunc(nf)
	}
	return np
}
