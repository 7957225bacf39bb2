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
	"repro/internal/ir"
	"repro/internal/policy"
	"repro/internal/workloads"
)

// Every liveness answer greedy formation uses must equal the
// whole-function fixpoint. Each micro and SPEC workload is formed under
// Table 1's four orderings and under Table 2's two VLIW heuristics, and
// every block-local answer is checked against ComputeLiveness.
func TestBlockLivenessOnWorkloads(t *testing.T) {
	var (
		mu         sync.Mutex
		queries    int
		mismatches []string
	)
	restore := core.SetLivenessCheck(func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet) {
		lv := analysis.ComputeLiveness(f)
		ok := slices.Equal(out.Members(), lv.Out[hb].Members()) &&
			slices.Equal(ue.Members(), lv.UEVar[hb].Members())
		mu.Lock()
		defer mu.Unlock()
		queries++
		if !ok {
			mismatches = append(mismatches, fmt.Sprintf("%s %s: block-local Out %v UEVar %v, ComputeLiveness Out %v UEVar %v",
				f.Name, hb, out.Members(), ue.Members(), lv.Out[hb].Members(), lv.UEVar[hb].Members()))
		}
	})
	defer restore()

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
	})
	for i, m := range mismatches {
		if i == 5 {
			break
		}
		t.Error(m)
	}
	if len(mismatches) > 0 {
		t.Fatalf("%d of %d block-local answers differ from ComputeLiveness", len(mismatches), queries)
	}
	t.Logf("%d block-local answers match ComputeLiveness", queries)
}
