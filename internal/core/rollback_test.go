package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trips"
	"repro/internal/workloads"
)

// A constraint-rejected merge attempt must leave the working function
// exactly as it was: the same text, register count and next branch ID,
// and the same mutation version, so analyses cached before the attempt
// stay valid. Every legal (block, successor) pair of the paper figures
// and the micro workloads is tried under limits tight enough that most
// attempts are rejected after combine and optimization have run.
func TestRejectedMergeRollsBack(t *testing.T) {
	cfg := relaxed()
	cfg.Cons = trips.Constraints{MaxInstrs: 12, MaxMemOps: 2, RegBanks: 4,
		MaxReadsPerBank: 2, MaxWritesPerBank: 2}
	f2, _ := figure2CFG(t)
	f3, _ := figure3CFG(t)
	funcs := []*ir.Function{f2, f3}
	for _, w := range workloads.Micro() {
		p, err := lang.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		funcs = append(funcs, p.OrderedFuncs()...)
	}
	rejected := 0
	for _, f := range funcs {
		fo := NewFormer(f, cfg)
		for _, hb := range append([]*ir.Block(nil), f.Blocks...) {
			if f.BlockByID(hb.ID) == nil {
				continue // deleted by an earlier commit
			}
			loops := fo.cache.Loops(f)
			for _, s := range hb.Succs() {
				if !fo.LegalMerge(hb, s, loops) {
					continue
				}
				text, regs, version := ir.FormatFunction(f), f.NumRegs(), f.Version()
				brID := ir.CloneFunction(f).NewBrID()
				rejects := fo.stats.Rejects
				if fo.MergeBlocks(hb, s, loops) {
					break // hb's successors changed; go on to the next block
				}
				if fo.stats.Rejects == rejects {
					continue // rejected before anything was rewritten
				}
				rejected++
				if got := ir.FormatFunction(f); got != text {
					t.Fatalf("%s: rejected merge of %s into %s changed the function:\n%s\nwant:\n%s",
						f.Name, s, hb, got, text)
				}
				if f.NumRegs() != regs || f.Version() != version {
					t.Fatalf("%s: rejected merge of %s into %s left NumRegs %d (want %d), Version %d (want %d)",
						f.Name, s, hb, f.NumRegs(), regs, f.Version(), version)
				}
				if got := ir.CloneFunction(f).NewBrID(); got != brID {
					t.Fatalf("%s: rejected merge of %s into %s left next BrID %d, want %d",
						f.Name, s, hb, got, brID)
				}
			}
		}
	}
	t.Logf("%d constraint-rejected attempts rolled back", rejected)
	if rejected < 20 {
		t.Fatalf("only %d constraint-rejected attempts; the limits no longer exercise rollback", rejected)
	}
}
