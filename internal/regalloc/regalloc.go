// Package regalloc maps virtual registers onto the TRIPS
// architectural register file: 128 registers in 4 banks, with at most
// 8 reads and 8 writes per bank per block. It implements:
//
//   - live-interval construction over a linearized block order;
//   - linear-scan assignment with bank-balancing (round-robin bank
//     preference) and furthest-end spilling;
//   - spill code insertion (loads before uses, stores after
//     definitions) into a per-function spill area;
//   - post-allocation validation of the per-block bank constraints;
//   - reverse if-conversion (block splitting, the paper's §6): when
//     spill code pushes a block over the structural limits, the block
//     is split and allocation repeats.
//
// Functions that both recurse and need spill slots are rejected (the
// static spill area is not reentrant); the driver leaves such
// functions on virtual registers and reports it.
package regalloc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/trips"
)

// Assignment is the result of allocating one function.
type Assignment struct {
	// Phys maps each virtual register to an architectural register
	// number in [0, NumRegs); spilled registers are absent.
	Phys map[ir.Reg]int
	// Spilled maps spilled virtual registers to spill-slot indices.
	Spilled map[ir.Reg]int
	// SpillBase is the memory address of the function's spill area
	// (meaningful when Spills > 0).
	SpillBase int64
	// Splits counts reverse-if-conversion block splits performed.
	Splits int
	// Rounds counts allocation attempts.
	Rounds int
	// Violations lists residual per-block constraint violations that
	// block splitting could not repair (splitting increases
	// cross-block communication, so some violations are
	// unsplittable; the paper's §9 discusses smarter splitting as
	// future work). Semantics are unaffected.
	Violations []error
}

// Options configure the allocator.
type Options struct {
	// NumRegs is the architectural register count (default 128).
	NumRegs int
	// Banks is the number of register banks (default 4); register r
	// lives in bank r % Banks.
	Banks int
	// Cons are the block constraints used for the re-check after
	// spilling (default trips.Default()).
	Cons trips.Constraints
	// MaxRounds bounds the allocate/split loop (default 8).
	MaxRounds int
}

func (o Options) withDefaults() Options {
	if o.NumRegs == 0 {
		o.NumRegs = 128
	}
	if o.Banks == 0 {
		o.Banks = 4
	}
	if o.Cons.MaxInstrs == 0 {
		o.Cons = trips.Default()
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 32
	}
	return o
}

// interval is a live range in linearized position space.
type interval struct {
	reg        ir.Reg
	start, end int
	isParam    bool
	paramIdx   int
}

// Allocate assigns architectural registers to f, inserting spill code
// and splitting blocks as needed. The function is modified in place.
// prog is needed to reserve spill memory; it may be nil when the
// function is known to fit without spills (allocation then fails if a
// spill is required).
func Allocate(f *ir.Function, prog *ir.Program, opts Options) (*Assignment, error) {
	opts = opts.withDefaults()
	asn := &Assignment{Phys: map[ir.Reg]int{}, Spilled: map[ir.Reg]int{}}

	// Registers minted by spill insertion must never be spilled
	// themselves (their reload/store chains would grow unboundedly).
	noSpillFrom := ir.Reg(f.NumRegs())

	// One analysis cache for the whole allocate/split loop: the
	// linear scan itself never mutates f, so the post-allocation
	// constraint check reuses the liveness computed for interval
	// construction.
	var cache analysis.Cache

	for round := 0; round < opts.MaxRounds; round++ {
		asn.Rounds = round + 1
		phys, spills, err := tryAllocate(f, opts, noSpillFrom, &cache)
		if err != nil {
			return nil, err
		}
		if len(spills) > 0 {
			if prog == nil {
				return nil, fmt.Errorf("regalloc: %s needs %d spill slots but no program for spill memory", f.Name, len(spills))
			}
			if isRecursive(f) {
				return nil, fmt.Errorf("regalloc: %s is recursive and needs spills; static spill area is not reentrant", f.Name)
			}
			base := asn.SpillBase
			if len(asn.Spilled) == 0 {
				base = prog.AddGlobal(fmt.Sprintf("__spill_%s_%d", f.Name, round), int64(len(spills)))
				asn.SpillBase = base
			} else {
				// Extend the spill area.
				base = prog.AddGlobal(fmt.Sprintf("__spill_%s_%d", f.Name, round), int64(len(spills)))
			}
			slotBase := len(asn.Spilled)
			for i, r := range spills {
				asn.Spilled[r] = slotBase + i
			}
			insertSpillCode(f, spills, base)
			continue // re-run allocation with spill code in place
		}
		asn.Phys = phys
		// Check per-block structural constraints post-allocation;
		// split every violating block (reverse if-conversion) and
		// retry.
		split := 0
		asn.Violations = asn.Violations[:0]
		lv := cache.Liveness(f)
		for _, b := range f.Blocks {
			err := blockViolation(b, lv, phys, opts)
			if err == nil {
				continue
			}
			if splitBlock(f, b) {
				split++
			} else {
				asn.Violations = append(asn.Violations, err)
			}
		}
		if split == 0 {
			return asn, nil
		}
		asn.Splits += split
	}
	return nil, fmt.Errorf("regalloc: %s did not converge in %d rounds", f.Name, opts.MaxRounds)
}

// tryAllocate runs one linear-scan pass. It returns the assignment,
// or the list of virtual registers to spill when pressure exceeds the
// register file.
func tryAllocate(f *ir.Function, opts Options, noSpillFrom ir.Reg, cache *analysis.Cache) (map[ir.Reg]int, []ir.Reg, error) {
	ivals := buildIntervals(f, cache)
	sort.Slice(ivals, func(i, j int) bool {
		if ivals[i].start != ivals[j].start {
			return ivals[i].start < ivals[j].start
		}
		return ivals[i].reg < ivals[j].reg
	})

	// The scan works on a register-indexed slice (-1 = unassigned);
	// the map the caller stores is materialized only on success.
	physS := make([]int32, f.NumRegs())
	for i := range physS {
		physS[i] = -1
	}
	free := make([]bool, opts.NumRegs)
	for i := range free {
		free[i] = true
	}
	// Params are precolored to registers 0..n-1 by convention.
	type active struct {
		end     int
		reg     ir.Reg
		ph      int
		isParam bool
	}
	var act []active
	var spills []ir.Reg
	nextBank := 0

	expire := func(pos int) {
		kept := act[:0]
		for _, a := range act {
			if a.end >= pos {
				kept = append(kept, a)
			} else {
				free[a.ph] = true
			}
		}
		act = kept
	}
	pick := func() int {
		// Prefer the next bank in rotation to balance bank usage.
		for off := 0; off < opts.Banks; off++ {
			bank := (nextBank + off) % opts.Banks
			for r := bank; r < opts.NumRegs; r += opts.Banks {
				if free[r] {
					nextBank = (bank + 1) % opts.Banks
					return r
				}
			}
		}
		return -1
	}

	for _, iv := range ivals {
		expire(iv.start)
		var ph int
		if iv.isParam {
			ph = iv.paramIdx
			if ph >= opts.NumRegs {
				return nil, nil, fmt.Errorf("regalloc: too many parameters")
			}
			if !free[ph] {
				return nil, nil, fmt.Errorf("regalloc: parameter register %d unavailable", ph)
			}
		} else {
			ph = pick()
		}
		for ph < 0 {
			// Spill active intervals (furthest end first) until a
			// register frees up; fall back to spilling the current
			// interval when nothing else is spillable.
			fi, fend := -1, iv.end
			for i, a := range act {
				if a.end > fend && !a.isParam && a.reg < noSpillFrom {
					fi, fend = i, a.end
				}
			}
			if fi < 0 {
				break
			}
			spills = append(spills, act[fi].reg)
			free[act[fi].ph] = true
			physS[act[fi].reg] = -1
			act = append(act[:fi], act[fi+1:]...)
			ph = pick()
		}
		if ph < 0 {
			if iv.reg >= noSpillFrom {
				return nil, nil, fmt.Errorf("regalloc: register file too small for spill machinery in %s", f.Name)
			}
			spills = append(spills, iv.reg)
			continue
		}
		free[ph] = false
		physS[iv.reg] = int32(ph)
		act = append(act, active{end: iv.end, reg: iv.reg, ph: ph, isParam: iv.isParam})
	}
	if len(spills) > 0 {
		return nil, spills, nil
	}
	phys := make(map[ir.Reg]int, len(ivals))
	for r, ph := range physS {
		if ph >= 0 {
			phys[ir.Reg(r)] = int(ph)
		}
	}
	return phys, nil, nil
}

// buildIntervals computes one conservative live interval per virtual
// register over the linearized function (RPO block order). Liveness
// across blocks extends intervals to cover every block where the
// register is live.
func buildIntervals(f *ir.Function, cache *analysis.Cache) []interval {
	order := cache.RPO(f)
	lv := cache.Liveness(f)

	// Linear positions: blocks laid out in RPO, two positions per
	// instruction (use side, def side).
	blockStart := make([]int, f.BlockIDBound())
	pos := 0
	for _, b := range order {
		blockStart[b.ID] = pos
		pos += 2*len(b.Instrs) + 2
	}
	totalEnd := pos

	// Register-indexed first/last positions; startS -1 marks a
	// register never touched.
	nregs := f.NumRegs()
	startS := make([]int, nregs)
	endS := make([]int, nregs)
	for i := range startS {
		startS[i] = -1
		endS[i] = -1
	}
	touch := func(r ir.Reg, p int) {
		if !r.Valid() {
			return
		}
		if startS[r] < 0 || p < startS[r] {
			startS[r] = p
		}
		if p > endS[r] {
			endS[r] = p
		}
	}
	var buf []ir.Reg
	for _, b := range order {
		bs := blockStart[b.ID]
		// Live-in/out registers cover the whole block.
		buf = lv.In[b].AppendMembers(buf[:0])
		for _, r := range buf {
			touch(r, bs)
		}
		buf = lv.Out[b].AppendMembers(buf[:0])
		for _, r := range buf {
			touch(r, bs+2*len(b.Instrs)+1)
		}
		for i, in := range b.Instrs {
			buf = in.Uses(buf)
			for _, r := range buf {
				touch(r, bs+2*i)
			}
			if d := in.Def(); d.Valid() {
				touch(d, bs+2*i+1)
			}
		}
	}
	// Loop-carried values must span their whole loop: a register live
	// into a loop header is extended to the end of the loop's last
	// block in linear order.
	loops := cache.Loops(f)
	for _, b := range order {
		l := loops.InnermostLoop(b)
		if l == nil {
			continue
		}
		loopEnd := 0
		for _, lb := range l.Blocks {
			if e := blockStart[lb.ID] + 2*len(lb.Instrs) + 1; e > loopEnd {
				loopEnd = e
			}
		}
		buf = lv.In[l.Header].AppendMembers(buf[:0])
		for _, r := range buf {
			if endS[r] < loopEnd {
				endS[r] = loopEnd
			}
		}
	}

	// Params are live from function entry.
	for _, p := range f.Params {
		touch(p, 0)
	}
	out := make([]interval, 0, nregs)
	for r := 0; r < nregs; r++ {
		if startS[r] < 0 {
			continue
		}
		iv := interval{reg: ir.Reg(r), start: startS[r], end: endS[r]}
		for pi, p := range f.Params {
			if p == ir.Reg(r) {
				iv.isParam = true
				iv.paramIdx = pi
				iv.start = 0
				break
			}
		}
		if iv.end > totalEnd {
			iv.end = totalEnd
		}
		out = append(out, iv)
	}
	return out
}

// insertSpillCode rewrites every use of each spilled register to load
// from its slot (an unpredicated reload — spill slots are always
// addressable) and every definition to store to it (predicated like
// the definition, so untaken paths do not clobber the slot), using
// fresh temporary virtual registers.
func insertSpillCode(f *ir.Function, spills []ir.Reg, base int64) {
	// Register-indexed slot table (-1 = not spilled). Sized before any
	// temp registers are minted below; temps never appear as operands
	// of the pre-existing instructions being rewritten.
	slot := make([]int64, f.NumRegs())
	for i := range slot {
		slot[i] = -1
	}
	for i, r := range spills {
		slot[r] = base + int64(i)
	}
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs)+8)
		// A fresh address register per access keeps spill-machinery
		// live ranges minimal (one instruction), so spill code can
		// always be register-allocated.
		zeroReg := func() ir.Reg {
			z := f.NewReg()
			out = append(out, &ir.Instr{Op: ir.OpConst, Dst: z,
				A: ir.NoReg, B: ir.NoReg, Pred: ir.NoReg, Imm: 0})
			return z
		}
		for _, in := range b.Instrs {
			reload := func(r ir.Reg) ir.Reg {
				off := slot[r]
				if off < 0 {
					return r
				}
				t := f.NewReg()
				out = append(out, &ir.Instr{Op: ir.OpLoad, Dst: t, A: zeroReg(),
					B: ir.NoReg, Pred: ir.NoReg, Imm: off})
				return t
			}
			if in.A.Valid() {
				in.A = reload(in.A)
			}
			if in.B.Valid() {
				in.B = reload(in.B)
			}
			if in.Pred.Valid() {
				in.Pred = reload(in.Pred)
			}
			for ai, a := range in.Args {
				in.Args[ai] = reload(a)
			}
			if d := in.Def(); d.Valid() {
				if off := slot[d]; off >= 0 {
					t := f.NewReg()
					if in.Predicated() {
						// Read-modify-write: preload the slot's old
						// value so the temp has an unpredicated
						// definition (bounding its live range) and
						// the write-back can be unconditional.
						out = append(out, &ir.Instr{Op: ir.OpLoad, Dst: t,
							A: zeroReg(), B: ir.NoReg, Pred: ir.NoReg, Imm: off})
					}
					in.Dst = t
					out = append(out, in)
					out = append(out, &ir.Instr{Op: ir.OpStore, Dst: ir.NoReg,
						A: zeroReg(), B: t, Pred: ir.NoReg, Imm: off})
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	f.MarkDirty() // blocks rewritten in place above
}

// isRecursive reports whether f can reach itself through calls.
func isRecursive(f *ir.Function) bool {
	if f.Prog == nil {
		// Without a program we only detect direct recursion.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee == f.Name {
					return true
				}
			}
		}
		return false
	}
	seen := map[string]bool{}
	var visit func(name string) bool
	visit = func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		fn := f.Prog.Func(name)
		if fn == nil {
			return false
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if in.Callee == f.Name {
						return true
					}
					if visit(in.Callee) {
						return true
					}
				}
			}
		}
		return false
	}
	return visit(f.Name)
}

// violatingBlocks returns the blocks that break the per-block bank or
// size constraints under the given assignment.
func violatingBlocks(f *ir.Function, phys map[ir.Reg]int, opts Options) []*ir.Block {
	lv := analysis.ComputeLiveness(f)
	var out []*ir.Block
	for _, b := range f.Blocks {
		if blockViolation(b, lv, phys, opts) != nil {
			out = append(out, b)
		}
	}
	return out
}

// findViolatingBlock returns a block that breaks the per-block bank
// or size constraints under the given assignment, or nil.
func findViolatingBlock(f *ir.Function, phys map[ir.Reg]int, opts Options) *ir.Block {
	bs := violatingBlocks(f, phys, opts)
	if len(bs) == 0 {
		return nil
	}
	return bs[0]
}

// bankScratch is the pooled working state of blockViolation's bank
// check: a seen-architectural-register table plus per-bank counters.
type bankScratch struct {
	seen []bool
	cnt  []int32
	regs []ir.Reg
}

var bankPool = sync.Pool{New: func() any { return new(bankScratch) }}

func (sc *bankScratch) prep(numRegs, banks int) {
	if cap(sc.seen) < numRegs {
		sc.seen = make([]bool, numRegs)
	} else {
		sc.seen = sc.seen[:numRegs]
		clear(sc.seen)
	}
	if cap(sc.cnt) < banks {
		sc.cnt = make([]int32, banks)
	} else {
		sc.cnt = sc.cnt[:banks]
		clear(sc.cnt)
	}
}

// blockViolation explains how b violates the constraints, or nil.
func blockViolation(b *ir.Block, lv *analysis.Liveness, phys map[ir.Reg]int, opts Options) error {
	s := trips.Measure(b, lv)
	if err := opts.Cons.Check(s); err != nil {
		return err
	}
	// Bank limits: distinct architectural registers read (upward
	// exposed) and written (live-out writes) per bank.
	sc := bankPool.Get().(*bankScratch)
	defer bankPool.Put(sc)

	sc.prep(opts.NumRegs, opts.Banks)
	sc.regs = lv.UEVar[b].AppendMembers(sc.regs[:0])
	for _, r := range sc.regs {
		if ph, ok := phys[r]; ok && !sc.seen[ph] {
			sc.seen[ph] = true
			sc.cnt[ph%opts.Banks]++
		}
	}
	for bank, n := range sc.cnt {
		if int(n) > opts.Cons.MaxReadsPerBank {
			return fmt.Errorf("regalloc: block %s reads %d registers in bank %d (max %d)",
				b, n, bank, opts.Cons.MaxReadsPerBank)
		}
	}

	sc.prep(opts.NumRegs, opts.Banks)
	sc.regs = analysis.LiveOutWritesAppend(b, lv, sc.regs[:0])
	for _, r := range sc.regs {
		if ph, ok := phys[r]; ok && !sc.seen[ph] {
			sc.seen[ph] = true
			sc.cnt[ph%opts.Banks]++
		}
	}
	for bank, n := range sc.cnt {
		if int(n) > opts.Cons.MaxWritesPerBank {
			return fmt.Errorf("regalloc: block %s writes %d registers in bank %d (max %d)",
				b, n, bank, opts.Cons.MaxWritesPerBank)
		}
	}
	return nil
}

// splitBlock performs reverse if-conversion on b: the block is cut at
// the legal position (before its first exit) that minimizes the
// number of values crossing the cut — cross-block communication costs
// register reads/writes, so the cut point matters (§9). The first
// half falls through to a new block holding the rest. Returns false
// if the block is too small to split.
func splitBlock(f *ir.Function, b *ir.Block) bool {
	// Find the first exit instruction; cuts past it are illegal.
	firstExit := len(b.Instrs)
	for i, in := range b.Instrs {
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			firstExit = i
			break
		}
	}
	if firstExit < 2 || len(b.Instrs) < 4 {
		return false
	}
	// For each candidate cut, count registers defined before and used
	// at-or-after the cut. Prefer mid-block cuts on ties.
	lastDef := map[ir.Reg]int{}
	for i, in := range b.Instrs {
		if d := in.Def(); d.Valid() {
			lastDef[d] = i
		}
	}
	bestCut, bestScore := -1, 1<<30
	var buf []ir.Reg
	crossing := map[ir.Reg]bool{}
	for cutCand := 1; cutCand < firstExit; cutCand++ {
		for k := range crossing {
			delete(crossing, k)
		}
		for i := cutCand; i < len(b.Instrs); i++ {
			buf = b.Instrs[i].Uses(buf)
			for _, r := range buf {
				if d, ok := lastDef[r]; ok && d < cutCand {
					crossing[r] = true
				}
			}
		}
		score := len(crossing)*4 + abs(cutCand-len(b.Instrs)/2)
		if score < bestScore {
			bestCut, bestScore = cutCand, score
		}
	}
	cut := bestCut
	if cut < 1 {
		return false
	}
	rest := b.Instrs[cut:]
	nb := &ir.Block{ID: -1, Name: b.Name + ".split", Fn: f, Hyper: b.Hyper}
	nb.Instrs = append(nb.Instrs, rest...)
	f.AdoptBlock(nb)
	b.Instrs = append(b.Instrs[:cut:cut], &ir.Instr{Op: ir.OpBr, Dst: ir.NoReg,
		A: ir.NoReg, B: ir.NoReg, Pred: ir.NoReg, Target: nb})
	f.MarkDirty() // b.Instrs rewritten in place above
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// AllocateProgram allocates every function, returning per-function
// assignments. Functions that fail (e.g. recursive with spills) are
// reported in errs and left untouched semantically (spill code may
// not have been inserted for them).
func AllocateProgram(p *ir.Program, opts Options) (map[string]*Assignment, map[string]error) {
	asns := map[string]*Assignment{}
	errs := map[string]error{}
	for _, f := range p.OrderedFuncs() {
		a, err := Allocate(f, p, opts)
		if err != nil {
			errs[f.Name] = err
			continue
		}
		asns[f.Name] = a
	}
	return asns, errs
}
