package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/ir"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// tailPrograms are the serve-cold corpus programs (corpus seed 1) whose
// formation takes longest: program i is generated from seed 1+i.
var tailPrograms = []int{87, 80, 232, 85, 248, 143}

// formOnWorkloads compiles every micro and SPEC workload under Table
// 1's four orderings and Table 2's two VLIW heuristics, and the tail
// corpus programs the way serve-cold compiles them, so that the
// formation test hooks see every merge.
func formOnWorkloads(t *testing.T) {
	t.Helper()
	var opts []compiler.Options
	for _, ord := range experiments.Table1Configs {
		opts = append(opts, compiler.Options{Ordering: ord})
	}
	for _, h := range experiments.Table2Heuristics() {
		if _, ok := h.Policy().(*policy.VLIW); ok {
			opts = append(opts, compiler.Options{Ordering: h.Ordering, Policy: h.Policy()})
		}
	}
	if len(opts) != 6 {
		t.Fatalf("%d configurations, want Table 1's four orderings and Table 2's two VLIW heuristics", len(opts))
	}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range append(workloads.Micro(), workloads.Spec()...) {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				for _, o := range opts {
					o.ProfileFn, o.ProfileArgs = "main", w.TrainArgs
					if o.Policy != nil {
						o.Policy = &policy.VLIW{}
					}
					if _, err := compiler.Compile(w.Source, o); err != nil {
						t.Fatalf("%s: %v", o.Ordering, err)
					}
				}
			})
		}
		for _, i := range tailPrograms {
			t.Run(fmt.Sprintf("corpus/%d", i), func(t *testing.T) {
				if raceEnabled {
					t.Skip("corpus programs run in the non-race build")
				}
				t.Parallel()
				if _, err := compiler.Compile(fuzz.Generate(int64(1+i), fuzz.GenConfig{}), compiler.Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

// mismatchLog collects a hook's disagreements across parallel compiles.
type mismatchLog struct {
	mu     sync.Mutex
	checks int
	bad    []string
}

func (m *mismatchLog) add(bad []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checks++
	m.bad = append(m.bad, bad...)
}

func (m *mismatchLog) report(t *testing.T, what string) {
	t.Helper()
	for i, b := range m.bad {
		if i == 5 {
			break
		}
		t.Error(b)
	}
	if len(m.bad) > 0 {
		t.Fatalf("%d mismatches in %d %s", len(m.bad), m.checks, what)
	}
	t.Logf("%d %s match", m.checks, what)
}

// Every liveness answer greedy formation uses must equal the
// whole-function fixpoint: each block-local answer is checked against
// ComputeLiveness.
func TestBlockLivenessOnWorkloads(t *testing.T) {
	var log mismatchLog
	restore := core.SetLivenessCheck(func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet) {
		lv := analysis.ComputeLiveness(f)
		var bad []string
		if !slices.Equal(out.Members(), lv.Out[hb].Members()) || !slices.Equal(ue.Members(), lv.UEVar[hb].Members()) {
			bad = append(bad, fmt.Sprintf("%s %s: block-local Out %v UEVar %v, ComputeLiveness Out %v UEVar %v",
				f.Name, hb, out.Members(), ue.Members(), lv.Out[hb].Members(), lv.UEVar[hb].Members()))
		}
		log.add(bad)
	})
	defer restore()
	formOnWorkloads(t)
	log.report(t, "block-local liveness answers")
}

// Every loop forest greedy formation reads — at each seed, after each
// committed merge and after each split, carried across commits or
// rebuilt — must answer as a fresh analysis.Loops does: IsHeader and
// the innermost loop's header for every reachable block, and
// IsBackEdge for every CFG edge.
func TestLoopForestOnWorkloads(t *testing.T) {
	var log mismatchLog
	restore := core.SetLoopsCheck(func(f *ir.Function, lf *analysis.LoopForest) {
		log.add(diffLoops(f, lf, analysis.Loops(f)))
	})
	defer restore()
	formOnWorkloads(t)
	log.report(t, "loop forests")
}

// diffLoops lists every question formation or a policy may ask on
// which got and want disagree.
func diffLoops(f *ir.Function, got, want *analysis.LoopForest) []string {
	var bad []string
	header := func(l *analysis.Loop) *ir.Block {
		if l == nil {
			return nil
		}
		return l.Header
	}
	for _, b := range analysis.ReversePostorder(f) {
		if g, w := got.IsHeader(b), want.IsHeader(b); g != w {
			bad = append(bad, fmt.Sprintf("%s: IsHeader(%s) = %v, want %v", f.Name, b, g, w))
		}
		if g, w := header(got.InnermostLoop(b)), header(want.InnermostLoop(b)); g != w {
			bad = append(bad, fmt.Sprintf("%s: InnermostLoop(%s) headed by %v, want %v", f.Name, b, g, w))
		}
		for _, s := range b.Succs() {
			if g, w := got.IsBackEdge(b, s), want.IsBackEdge(b, s); g != w {
				bad = append(bad, fmt.Sprintf("%s: IsBackEdge(%s, %s) = %v, want %v", f.Name, b, s, g, w))
			}
		}
	}
	return bad
}
