package compiler

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim/functional"
)

// panicPolicy panics when selecting candidates inside the named
// function, simulating a formation bug confined to one function.
type panicPolicy struct {
	Victim string
}

func (p *panicPolicy) Name() string          { return "panic-on-" + p.Victim }
func (p *panicPolicy) Prepare(*core.Context) {}
func (p *panicPolicy) Select(ctx *core.Context, cands []*ir.Block) int {
	if ctx.F.Name == p.Victim {
		panic("injected formation failure in " + p.Victim)
	}
	if len(cands) == 0 {
		return -1
	}
	return 0
}

const degradeSrc = `
func helper(n) {
  var s = 0;
  var i = 0;
  while (i < n) {
    if (i % 3 == 0) {
      s = s + i;
    } else {
      s = s - 1;
    }
    i = i + 1;
  }
  return s;
}

func main(n) {
  var a = helper(n);
  var b = 0;
  var i = 0;
  while (i < n) {
    b = b + i * 2;
    i = i + 1;
  }
  print(a);
  print(b);
  return a + b;
}`

// TestInjectedPanicDegradesOnlyVictim is the acceptance criterion: an
// injected mid-end panic degrades only the affected function to BB
// form while the rest of the program compiles and simulates correctly.
func TestInjectedPanicDegradesOnlyVictim(t *testing.T) {
	// Clean compile under the same ordering is the behavioral baseline.
	clean, err := Compile(degradeSrc, Options{Ordering: OrderIUPO1})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Degraded) != 0 {
		t.Fatalf("clean compile degraded: %v", clean.Degraded)
	}

	res, err := Compile(degradeSrc, Options{
		Ordering: OrderIUPO1,
		Policy:   &panicPolicy{Victim: "helper"},
	})
	if err != nil {
		t.Fatalf("compile must survive the injected panic, got %v", err)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("expected a degradation record for helper")
	}
	for _, d := range res.Degraded {
		if d.Func != "helper" {
			t.Fatalf("unexpected degraded function %q: %+v", d.Func, d)
		}
		if d.Phase != "formation" {
			t.Fatalf("unexpected degraded phase %q", d.Phase)
		}
		if !strings.Contains(d.Err, "injected formation failure") {
			t.Fatalf("degradation lost the panic message: %q", d.Err)
		}
	}

	// helper fell back to basic blocks: no hyperblocks there. main
	// still formed (panicPolicy behaves greedily outside the victim).
	for _, b := range res.Prog.Funcs["helper"].Blocks {
		if b.Hyper {
			t.Fatalf("helper block %s is a hyperblock after degradation", b.Name)
		}
	}
	mainHyper := false
	for _, b := range res.Prog.Funcs["main"].Blocks {
		if b.Hyper {
			mainHyper = true
		}
	}
	if !mainHyper {
		t.Fatal("main should still form hyperblocks")
	}

	// The degraded program still verifies and computes the same
	// results as the clean compile.
	if err := ir.VerifyProgram(res.Prog); err != nil {
		t.Fatalf("degraded program fails verification: %v", err)
	}
	for _, n := range []int64{0, 1, 7, 20} {
		v1, o1, _, err := functional.RunProgram(ir.CloneProgram(clean.Prog), "main", n)
		if err != nil {
			t.Fatal(err)
		}
		v2, o2, _, err := functional.RunProgram(ir.CloneProgram(res.Prog), "main", n)
		if err != nil {
			t.Fatalf("degraded program run failed: %v", err)
		}
		if v1 != v2 {
			t.Fatalf("n=%d: result %d (clean) vs %d (degraded)", n, v1, v2)
		}
		if len(o1) != len(o2) {
			t.Fatalf("n=%d: output %v vs %v", n, o1, o2)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("n=%d: output %v vs %v", n, o1, o2)
			}
		}
	}
}

// TestVerifyEachPhaseCleanCompile checks that the debug verification
// option is a no-op on a healthy pipeline under every ordering.
func TestVerifyEachPhaseCleanCompile(t *testing.T) {
	for _, ord := range Orderings {
		res, err := Compile(degradeSrc, Options{Ordering: ord, VerifyEachPhase: true})
		if err != nil {
			t.Fatalf("%s: %v", ord, err)
		}
		if len(res.Degraded) != 0 {
			t.Fatalf("%s: unexpected degradations %v", ord, res.Degraded)
		}
	}
}

// TestUnrollPeelDegradation injects a panic into the discrete
// unroll/peel phase via a profile with a poisoned function entry and
// checks the guard catches a broken post-phase function. Since
// UnrollPeelFunction itself has no injection hook, exercise the guard
// directly.
func TestGuardFunctionRestoresSnapshot(t *testing.T) {
	prog, err := Compile(degradeSrc, Options{Ordering: OrderBB})
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Prog.Funcs["main"]
	before := len(f.Blocks)

	nf, deg := core.GuardFunction(f, "unrollpeel", func(fn *ir.Function) *ir.Function {
		// Mutate, then panic: the caller must get the snapshot back.
		fn.Blocks = fn.Blocks[:1]
		panic("boom")
	})
	if deg == nil {
		t.Fatal("expected a degradation")
	}
	if deg.Phase != "unrollpeel" || !strings.Contains(deg.Err, "boom") {
		t.Fatalf("bad degradation: %+v", deg)
	}
	if len(nf.Blocks) != before {
		t.Fatalf("snapshot not restored: %d blocks, want %d", len(nf.Blocks), before)
	}
	if err := ir.Verify(nf); err != nil {
		t.Fatalf("restored snapshot fails verification: %v", err)
	}

	// A phase that silently corrupts the IR (no panic) is also caught.
	nf2, deg2 := core.GuardFunction(nf, "formation", func(fn *ir.Function) *ir.Function {
		fn.Blocks = fn.Blocks[:1] // drop blocks: dangling branch targets
		return fn
	})
	if deg2 == nil {
		t.Fatal("expected verifier-driven degradation")
	}
	if !strings.Contains(deg2.Err, "post-phase verify") {
		t.Fatalf("degradation should cite the verifier: %+v", deg2)
	}
	if len(nf2.Blocks) != before {
		t.Fatalf("snapshot not restored after verify failure: %d blocks", len(nf2.Blocks))
	}
}
