package opt

import (
	"slices"
	"sync"

	"repro/internal/ir"
	"repro/internal/seeded"
)

// valueNumbering is the per-block state of the predicate-aware local
// value numbering pass. All register- and value-number-indexed state
// lives in slices (value numbers start at 1, so 0 is the "unknown"
// sentinel in vn, and ir.NoReg marks an empty rep slot); the whole
// struct is pooled across calls so a steady-state ValueNumber run
// performs no allocations. reset clears only what the previous block
// wrote, so a call costs time in the block's size, not the
// function's.
type valueNumbering struct {
	f *ir.Function
	b *ir.Block

	nextVN  int
	vn      []int32  // register -> current value number (0 = none yet)
	lastUse []int32  // register -> index of latest read (0 default, as the map had)
	touched []ir.Reg // registers whose vn or lastUse entry this block set

	// Value-number-indexed tables, grown together by newVN.
	rep        []ir.Reg // vn -> a register currently holding it (NoReg = none)
	constKnown []bool   // vn -> constVal is meaningful
	constVal   []int64  // vn -> known constant
	bools      []bool   // vn -> known to be 0 or 1
	constOrder []int32  // vns holding constants, in creation order

	// exprs maps expression keys to the value number they produce and
	// the site that produced them (for instruction merging).
	exprs     exprTable
	seenExits []exitKey // the block's exits so far; blocks have few
	useBuf    []ir.Reg
	kill      []int // instruction indices to delete afterwards
}

type exprKey struct {
	op        ir.Op
	a, b      int // operand value numbers (-1 if unused)
	imm       int64
	pred      int // predicate value number (-1 if unpredicated)
	predSense bool
}

// exitKey identifies an exit for duplicate elimination.
type exitKey struct {
	op     ir.Op
	target *ir.Block
	ret    int
	pred   int
	sense  bool
}

func (k exprKey) hash() uint64 {
	h := seeded.Mix(uint64(k.op) ^ uint64(uint32(k.a))<<8 ^ uint64(k.b)<<40)
	h = seeded.Mix(h ^ uint64(k.imm))
	return seeded.Mix(h ^ uint64(k.pred)<<1 ^ uint64(b2i(k.predSense)))
}

type exprVal struct {
	vn  int
	idx int    // instruction index that computed it
	dst ir.Reg // destination it was computed into
}

// exprTable is exprs: an open-addressed hash table whose entries live
// for one block. reset sizes it to the block and empties only the
// slots the previous block filled, so its cost follows the block. A
// pooled Go map cannot do that: clear walks the map's whole capacity,
// which is that of the largest block it ever held.
type exprTable struct {
	slots []exprSlot // power-of-two length, at most half full
	used  []int      // indices of the filled slots
}

type exprSlot struct {
	key  exprKey
	val  exprVal
	full bool
}

// reset empties the table and sizes it for up to n entries.
func (t *exprTable) reset(n int) {
	for _, i := range t.used {
		t.slots[i] = exprSlot{}
	}
	t.used = t.used[:0]
	size := 16
	for size < 2*n {
		size *= 2
	}
	// Slots past the old length are empty too, so a resize within
	// capacity needs no clearing.
	if cap(t.slots) < size {
		t.slots = make([]exprSlot, size)
	}
	t.slots = t.slots[:size]
}

// find returns the index of k's slot, or of the empty slot where k
// belongs.
func (t *exprTable) find(k exprKey) int {
	mask := len(t.slots) - 1
	for i := int(k.hash()) & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.full || s.key == k {
			return i
		}
	}
}

func (t *exprTable) get(k exprKey) (exprVal, bool) {
	s := &t.slots[t.find(k)]
	return s.val, s.full
}

func (t *exprTable) put(k exprKey, v exprVal) {
	i := t.find(k)
	if !t.slots[i].full {
		if 2*len(t.used) >= len(t.slots) {
			panic("opt: more expressions than the block has instructions")
		}
		t.used = append(t.used, i)
	}
	t.slots[i] = exprSlot{key: k, val: v, full: true}
}

var vnPool = sync.Pool{New: func() any { return &valueNumbering{} }}

func (v *valueNumbering) reset(f *ir.Function, b *ir.Block) {
	v.f, v.b = f, b
	v.nextVN = 0
	for _, r := range v.touched {
		v.vn[r], v.lastUse[r] = 0, 0
	}
	v.touched = v.touched[:0]
	// Every entry beyond the touched ones is already zero, so the
	// slices only need resizing.
	n := f.NumRegs()
	if cap(v.vn) < n {
		// Formation adds registers with every merge; grow with room
		// to spare rather than reallocate on every call.
		v.vn = make([]int32, n, n+n/2)
		v.lastUse = make([]int32, n, n+n/2)
	} else {
		v.vn = v.vn[:n]
		v.lastUse = v.lastUse[:n]
	}
	v.rep = v.rep[:0]
	v.constKnown = v.constKnown[:0]
	v.constVal = v.constVal[:0]
	v.bools = v.bools[:0]
	v.constOrder = v.constOrder[:0]
	v.kill = v.kill[:0]
	// Each instruction adds at most one expression. The old exits are
	// zeroed, not just dropped, so their targets do not keep the
	// previous block's function alive from the pool.
	v.exprs.reset(len(b.Instrs))
	clear(v.seenExits)
	v.seenExits = v.seenExits[:0]
	v.growVN(0)
}

// touch records that this block is about to set r's vn or lastUse
// entry, so the next reset clears it.
func (v *valueNumbering) touch(r ir.Reg) {
	if v.vn[r] == 0 && v.lastUse[r] == 0 {
		v.touched = append(v.touched, r)
	}
}

// growVN extends the vn-indexed tables to cover value number n.
func (v *valueNumbering) growVN(n int) {
	for len(v.rep) <= n {
		v.rep = append(v.rep, ir.NoReg)
		v.constKnown = append(v.constKnown, false)
		v.constVal = append(v.constVal, 0)
		v.bools = append(v.bools, false)
	}
}

func (v *valueNumbering) vnOf(r ir.Reg) int {
	if n := v.vn[r]; n != 0 {
		return int(n)
	}
	n := v.newVN()
	v.touch(r)
	v.vn[r] = int32(n)
	v.rep[n] = r
	return n
}

func (v *valueNumbering) newVN() int {
	v.nextVN++
	v.growVN(v.nextVN)
	return v.nextVN
}

// define gives r a fresh value number n and makes r its representative.
func (v *valueNumbering) define(r ir.Reg, n int) {
	if old := v.vn[r]; old != 0 && v.rep[old] == r {
		v.rep[old] = ir.NoReg
	}
	v.touch(r)
	v.vn[r] = int32(n)
	if v.rep[n] == ir.NoReg {
		v.rep[n] = r
	}
}

// ValueNumber performs one forward pass of predicate-aware local value
// numbering over b: constant folding, algebraic simplification, copy
// propagation (operand canonicalization), common-subexpression
// elimination, and complementary-predicate instruction merging. It
// reports whether the block changed.
func ValueNumber(f *ir.Function, b *ir.Block) bool {
	v := vnPool.Get().(*valueNumbering)
	v.reset(f, b)
	changed := v.run()
	if changed {
		// Operand rewrites above bypass the Block editing methods, so
		// record the mutation for version-keyed analysis caches.
		f.MarkDirty()
	}
	v.f, v.b = nil, nil
	vnPool.Put(v)
	return changed
}

func (v *valueNumbering) run() bool {
	b := v.b
	changed := false

	for idx := 0; idx < len(b.Instrs); idx++ {
		in := b.Instrs[idx]

		// Canonicalize operands to representative registers (copy
		// propagation). The predicate operand is canonicalized too.
		canon := func(r ir.Reg) ir.Reg {
			if !r.Valid() {
				return r
			}
			n := v.vnOf(r)
			if rep := v.rep[n]; rep != ir.NoReg && rep != r {
				return rep
			}
			return r
		}
		if in.A.Valid() {
			if c := canon(in.A); c != in.A {
				in.A = c
				changed = true
			}
		}
		if in.B.Valid() {
			if c := canon(in.B); c != in.B {
				in.B = c
				changed = true
			}
		}
		if in.Pred.Valid() {
			if c := canon(in.Pred); c != in.Pred {
				in.Pred = c
				changed = true
			}
		}
		for i, a := range in.Args {
			if c := canon(a); c != a {
				in.Args[i] = c
				changed = true
			}
		}

		// Predicate known constant? Fold the predicate away. Exits
		// (branches, returns) are never *unpredicated* — that would
		// break the block's exactly-one-exit structure — but an exit
		// whose predicate is provably false can never fire and is
		// safely deleted.
		if in.Pred.Valid() {
			if n := v.vnOf(in.Pred); v.constKnown[n] {
				if (v.constVal[n] != 0) != in.PredSense {
					// Never executes.
					v.kill = append(v.kill, idx)
					continue
				}
				if in.Op != ir.OpBr && in.Op != ir.OpRet {
					in.Pred = ir.NoReg // always executes
					changed = true
				}
			}
		}

		// Exact-duplicate exits (same target, same predicate value and
		// sense) are redundant: dataflow execution fires an exit once.
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			k := exitKey{op: in.Op, target: in.Target, pred: -1}
			if in.A.Valid() {
				k.ret = v.vnOf(in.A)
			}
			if in.Pred.Valid() {
				k.pred = v.vnOf(in.Pred)
				k.sense = in.PredSense
			}
			if slices.Contains(v.seenExits, k) {
				v.kill = append(v.kill, idx)
				continue
			}
			v.seenExits = append(v.seenExits, k)
		}

		// Record uses.
		v.useBuf = in.Uses(v.useBuf)
		for _, r := range v.useBuf {
			v.touch(r)
			v.lastUse[r] = int32(idx)
		}

		if !in.Op.Pure() {
			// Impure instructions still define (load/call): fresh vn.
			if d := in.Def(); d.Valid() {
				v.define(d, v.newVN())
			}
			continue
		}

		// Try constant folding.
		if in.Op != ir.OpConst {
			if folded, ok := v.foldConst(in); ok {
				in.Op = ir.OpConst
				in.Imm = folded
				in.A, in.B = ir.NoReg, ir.NoReg
				changed = true
			} else if v.algebraic(in) {
				changed = true
			}
		}

		// Compute the expression key.
		key := v.keyOf(in)

		// Complementary-predicate instruction merging: same dst, same
		// expression, opposite senses, dst untouched in between.
		if in.Predicated() {
			twinKey := key
			twinKey.predSense = !key.predSense
			if tw, ok := v.exprs.get(twinKey); ok && tw.dst == in.Dst &&
				b.Instrs[tw.idx].Dst == in.Dst &&
				int(v.vn[in.Dst]) == tw.vn &&
				int(v.lastUse[in.Dst]) < tw.idx+1 {
				// Unpredicate the twin, delete this instruction.
				b.Instrs[tw.idx].Pred = ir.NoReg
				v.kill = append(v.kill, idx)
				// dst's value number stays tw.vn.
				changed = true
				continue
			}
		}

		if ev, ok := v.exprs.get(key); ok {
			// Available expression. If a register still holds it,
			// turn this instruction into a copy (or delete it
			// entirely when the destination already holds it under
			// the same predicate).
			if rep := v.rep[ev.vn]; rep != ir.NoReg {
				if rep == in.Dst && int(v.vn[in.Dst]) == ev.vn {
					v.kill = append(v.kill, idx)
					changed = true
					continue
				}
				if in.Op != ir.OpMov || in.A != rep {
					in.Op = ir.OpMov
					in.A = rep
					in.B = ir.NoReg
					in.Imm = 0
					changed = true
				}
				if in.Predicated() {
					v.define(in.Dst, v.newVN())
				} else {
					v.define(in.Dst, ev.vn)
				}
				continue
			}
		}

		// New expression: assign its value number.
		var n int
		switch {
		case in.Op == ir.OpConst && !in.Predicated():
			n = v.constVN(in.Imm)
		case in.Op == ir.OpMov && !in.Predicated():
			n = v.vnOf(in.A)
		case in.Predicated():
			n = v.newVN() // predicated def: value is a runtime merge
		default:
			n = v.newVN()
		}
		if !in.Predicated() {
			switch {
			case in.Op.IsCompare():
				v.bools[n] = true
			case in.Op == ir.OpConst && (in.Imm == 0 || in.Imm == 1):
				v.bools[n] = true
			case (in.Op == ir.OpAnd || in.Op == ir.OpOr) &&
				v.bools[v.vnOf(in.A)] && v.bools[v.vnOf(in.B)]:
				v.bools[n] = true
			}
		}
		v.define(in.Dst, n)
		v.exprs.put(key, exprVal{vn: n, idx: idx, dst: in.Dst})
	}

	if len(v.kill) > 0 {
		for i := len(v.kill) - 1; i >= 0; i-- {
			b.RemoveAt(v.kill[i])
		}
		changed = true
	}
	return changed
}

// constVN returns a stable value number for a constant, recording it
// in the constant tables.
func (v *valueNumbering) constVN(imm int64) int {
	// Search existing constant vns in creation order (linear in
	// distinct consts; blocks are small). Values are unique, so at
	// most one entry can match — the scan order cannot change the
	// result.
	for _, n := range v.constOrder {
		if v.constVal[n] == imm {
			return int(n)
		}
	}
	n := v.newVN()
	v.constKnown[n] = true
	v.constVal[n] = imm
	v.constOrder = append(v.constOrder, int32(n))
	return n
}

func (v *valueNumbering) keyOf(in *ir.Instr) exprKey {
	k := exprKey{op: in.Op, a: -1, b: -1, imm: in.Imm, pred: -1}
	if in.A.Valid() {
		k.a = v.vnOf(in.A)
	}
	if in.B.Valid() {
		k.b = v.vnOf(in.B)
	}
	if in.Pred.Valid() {
		k.pred = v.vnOf(in.Pred)
		k.predSense = in.PredSense
	}
	// Commutative normalization.
	switch in.Op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpCmpEQ, ir.OpCmpNE:
		if k.a > k.b {
			k.a, k.b = k.b, k.a
		}
	}
	return k
}

// foldConst evaluates in if all register operands hold known
// constants; it returns the folded value.
func (v *valueNumbering) foldConst(in *ir.Instr) (int64, bool) {
	get := func(r ir.Reg) (int64, bool) {
		n := v.vnOf(r)
		return v.constVal[n], v.constKnown[n]
	}
	if in.Op.IsUnary() {
		a, ok := get(in.A)
		if !ok {
			return 0, false
		}
		switch in.Op {
		case ir.OpMov:
			return a, true
		case ir.OpNeg:
			return -a, true
		case ir.OpNot:
			return ^a, true
		}
		return 0, false
	}
	if !in.Op.IsBinary() {
		return 0, false
	}
	a, ok := get(in.A)
	if !ok {
		return 0, false
	}
	b, ok := get(in.B)
	if !ok {
		return 0, false
	}
	switch in.Op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, true
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEQ:
		return b2i(a == b), true
	case ir.OpCmpNE:
		return b2i(a != b), true
	case ir.OpCmpLT:
		return b2i(a < b), true
	case ir.OpCmpLE:
		return b2i(a <= b), true
	case ir.OpCmpGT:
		return b2i(a > b), true
	case ir.OpCmpGE:
		return b2i(a >= b), true
	}
	return 0, false
}

// algebraic applies identity simplifications with one constant
// operand, rewriting in place. Returns whether it changed in.
func (v *valueNumbering) algebraic(in *ir.Instr) bool {
	if !in.Op.IsBinary() {
		return false
	}
	constOf := func(r ir.Reg) (int64, bool) {
		n := v.vnOf(r)
		return v.constVal[n], v.constKnown[n]
	}
	toMov := func(src ir.Reg) {
		in.Op = ir.OpMov
		in.A = src
		in.B = ir.NoReg
		in.Imm = 0
	}
	toConst := func(c int64) {
		in.Op = ir.OpConst
		in.A, in.B = ir.NoReg, ir.NoReg
		in.Imm = c
	}
	ca, aok := constOf(in.A)
	cb, bok := constOf(in.B)
	switch in.Op {
	case ir.OpAdd:
		if aok && ca == 0 {
			toMov(in.B)
			return true
		}
		if bok && cb == 0 {
			toMov(in.A)
			return true
		}
	case ir.OpSub:
		if bok && cb == 0 {
			toMov(in.A)
			return true
		}
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toConst(0)
			return true
		}
	case ir.OpMul:
		if (aok && ca == 0) || (bok && cb == 0) {
			toConst(0)
			return true
		}
		if aok && ca == 1 {
			toMov(in.B)
			return true
		}
		if bok && cb == 1 {
			toMov(in.A)
			return true
		}
	case ir.OpDiv:
		if bok && cb == 1 {
			toMov(in.A)
			return true
		}
	case ir.OpAnd, ir.OpOr:
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toMov(in.A)
			return true
		}
		if in.Op == ir.OpAnd && ((aok && ca == 0) || (bok && cb == 0)) {
			toConst(0)
			return true
		}
		if in.Op == ir.OpOr {
			if aok && ca == 0 {
				toMov(in.B)
				return true
			}
			if bok && cb == 0 {
				toMov(in.A)
				return true
			}
		}
	case ir.OpXor:
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toConst(0)
			return true
		}
	case ir.OpShl, ir.OpShr:
		if bok && cb == 0 {
			toMov(in.A)
			return true
		}
	case ir.OpCmpEQ:
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toConst(1)
			return true
		}
	case ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpGT:
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toConst(0)
			return true
		}
		// b != 0 is b itself when b is known boolean (predicate
		// normalization glue from if-conversion folds to a copy).
		if in.Op == ir.OpCmpNE && bok && cb == 0 && v.bools[v.vnOf(in.A)] {
			toMov(in.A)
			return true
		}
		if in.Op == ir.OpCmpNE && aok && ca == 0 && v.bools[v.vnOf(in.B)] {
			toMov(in.B)
			return true
		}
	case ir.OpCmpLE, ir.OpCmpGE:
		if v.vnOf(in.A) == v.vnOf(in.B) {
			toConst(1)
			return true
		}
	}
	return false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
