package analysis

import (
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/seeded"
)

// randInt returns a uniform integer in [0, n).
func randInt(rng *seeded.Stream, n int) int { return int(rng.Next() % uint64(n)) }

// randomBody returns a straight-line body over regs, some of it
// predicated, ending in a return, one branch, or a pair of branches
// under complementary predicates — the exits a hyperblock has.
func randomBody(rng *seeded.Stream, regs []ir.Reg, targets []*ir.Block) []*ir.Instr {
	reg := func() ir.Reg { return regs[randInt(rng, len(regs))] }
	var body []*ir.Instr
	for i, n := 0, 1+randInt(rng, 5); i < n; i++ {
		in := &ir.Instr{Op: ir.OpAdd, Dst: reg(), A: reg(), B: reg(), Pred: ir.NoReg}
		if randInt(rng, 3) == 0 {
			in.Pred, in.PredSense = reg(), randInt(rng, 2) == 0
		}
		body = append(body, in)
	}
	br := func(t *ir.Block, p ir.Reg, sense bool) *ir.Instr {
		return &ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg,
			Pred: p, PredSense: sense, Target: t}
	}
	switch k := randInt(rng, 4); {
	case k == 0 || len(targets) == 0:
		body = append(body, &ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, A: reg(), B: ir.NoReg, Pred: ir.NoReg})
	case k == 1:
		body = append(body, br(targets[randInt(rng, len(targets))], ir.NoReg, false))
	default:
		p := reg()
		body = append(body,
			br(targets[randInt(rng, len(targets))], p, true),
			br(targets[randInt(rng, len(targets))], p, false))
	}
	return body
}

// randomCFG builds a function of n blocks whose edges are drawn at
// random, so self-loops, nested loops and irreducible regions all
// occur.
func randomCFG(rng *seeded.Stream, n int) (*ir.Function, []ir.Reg) {
	f := ir.NewFunction("rand", 2)
	regs := append([]ir.Reg(nil), f.Params...)
	for i := 0; i < 6; i++ {
		regs = append(regs, f.NewReg())
	}
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock("B")
	}
	for _, b := range blocks {
		b.Instrs = randomBody(rng, regs, blocks)
	}
	return f, regs
}

// mergeInto rewrites seed the way a merge does: it keeps a prefix of
// the body, appends new code over old and fresh registers, and branches
// anywhere the entry reached when the solver was built. Sometimes it
// then deletes the blocks that became unreachable.
func mergeInto(rng *seeded.Stream, f *ir.Function, seed *ir.Block, regs []ir.Reg, reached map[*ir.Block]bool) []ir.Reg {
	keep := seed.Instrs[:randInt(rng, len(seed.Instrs))]
	for _, in := range keep {
		if in.Op == ir.OpBr || in.Op == ir.OpRet {
			keep = keep[:0] // exits end the body; start over
			break
		}
	}
	for i := randInt(rng, 3); i > 0; i-- {
		regs = append(regs, f.NewReg())
	}
	var targets []*ir.Block
	for _, b := range f.Blocks {
		if reached[b] {
			targets = append(targets, b)
		}
	}
	seed.Instrs = append(slices.Clip(keep), randomBody(rng, regs, targets)...)
	f.MarkDirty()
	if randInt(rng, 2) == 0 {
		f.RemoveUnreachable()
	}
	return regs
}

func checkBlockLiveness(t *testing.T, bl *BlockLiveness, f *ir.Function, seed *ir.Block, what string) {
	t.Helper()
	out, ue := bl.Solve()
	lv := ComputeLiveness(f)
	if got, want := out.Members(), lv.Out[seed].Members(); !slices.Equal(got, want) {
		t.Fatalf("%s: Out = %v, ComputeLiveness says %v\n%s", what, got, want, ir.FormatFunction(f))
	}
	if got, want := ue.Members(), lv.UEVar[seed].Members(); !slices.Equal(got, want) {
		t.Fatalf("%s: UEVar = %v, ComputeLiveness says %v\n%s", what, got, want, ir.FormatFunction(f))
	}
}

// Property: on random CFGs, the block-local answer for a seed whose
// body and out-edges are rewritten merge by merge equals the
// whole-function fixpoint.
func TestBlockLivenessMatchesComputeLiveness(t *testing.T) {
	rng := seeded.Stream(1)
	for trial := 0; trial < 2000; trial++ {
		f, regs := randomCFG(&rng, 1+randInt(&rng, 10))
		rpo := ReversePostorder(f)
		seed := rpo[randInt(&rng, len(rpo))]
		reached := map[*ir.Block]bool{}
		for _, b := range rpo {
			reached[b] = true
		}
		bl := new(Cache).BlockLiveness(f, seed)
		checkBlockLiveness(t, bl, f, seed, "before any merge")
		for m := 0; m < 4; m++ {
			regs = mergeInto(&rng, f, seed, regs, reached)
			checkBlockLiveness(t, bl, f, seed, "after a merge")
		}
	}
}

// Property: registers created after the solver was built, past the
// set width it was built with, flow through the blocks that reach the
// seed exactly as ComputeLiveness says.
func TestBlockLivenessNewRegisterWords(t *testing.T) {
	rng := seeded.Stream(3)
	for trial := 0; trial < 1000; trial++ {
		f, regs := randomCFG(&rng, 1+randInt(&rng, 10))
		rpo := ReversePostorder(f)
		seed := rpo[randInt(&rng, len(rpo))]
		reached := map[*ir.Block]bool{}
		for _, b := range rpo {
			reached[b] = true
		}
		bl := new(Cache).BlockLiveness(f, seed)
		var fresh []ir.Reg
		for len(fresh) < 70 {
			fresh = append(fresh, f.NewReg())
		}
		regs = fresh[len(fresh)-4:] // all past the first 64-bit word
		for m := 0; m < 4; m++ {
			regs = mergeInto(&rng, f, seed, regs, reached)
			checkBlockLiveness(t, bl, f, seed, "after a merge over new registers")
		}
	}
}

// A split adds a block, which can join the set of blocks that reach
// the seed: the solver refuses to answer until it is rebuilt, and the
// rebuilt one is exact again.
func TestBlockLivenessSplitNeedsReset(t *testing.T) {
	f, bs := buildLoopNest(t)
	seed, body := bs["CD"], bs["E"]
	bl := new(Cache).BlockLiveness(f, seed)
	checkBlockLiveness(t, bl, f, seed, "before the split")

	// Split E the way core.SplitOversizeCandidate does: its
	// instructions move to a new block that E branches to.
	nb := &ir.Block{Name: "E.split"}
	nb.Instrs = body.Instrs
	f.AdoptBlock(nb)
	body.Instrs = []*ir.Instr{{Op: ir.OpBr, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, Pred: ir.NoReg, Target: nb}}
	f.MarkDirty()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale solver answered after a split")
			}
		}()
		bl.Solve()
	}()
	fresh := new(Cache).BlockLiveness(f, seed)
	if nb.ID < len(bl.inR) || !fresh.inR[nb.ID] {
		t.Fatalf("the split block reaches the seed: stale R covers %d IDs, fresh inR[%d] = %v",
			len(bl.inR), nb.ID, fresh.inR[nb.ID])
	}
	checkBlockLiveness(t, fresh, f, seed, "after the split")
}
