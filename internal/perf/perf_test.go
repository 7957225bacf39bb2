package perf

import (
	"strings"
	"testing"
)

func report(results ...Result) *Report {
	return &Report{Schema: Schema, Results: results}
}

func TestCompareAllocBudgetIsExact(t *testing.T) {
	fresh := report(Result{Name: "CycleSim/WarmRun", NsPerOp: 100, AllocsPerOp: 1, AllocBudget: 0})
	base := report(Result{Name: "CycleSim/WarmRun", NsPerOp: 100, AllocsPerOp: 0, AllocBudget: 0})
	v, _ := Compare(fresh, base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "exceeds budget") {
		t.Fatalf("want one alloc-budget violation, got %v", v)
	}
	// Budget -1 means ungated no matter how much is allocated.
	fresh.Results[0].AllocBudget = -1
	if v, _ := Compare(fresh, base, 0.25); len(v) != 0 {
		t.Fatalf("ungated benchmark must not violate: %v", v)
	}
}

func TestCompareNsTolerance(t *testing.T) {
	base := report(Result{Name: "Formation/Full", NsPerOp: 1000, AllocBudget: -1})
	ok := report(Result{Name: "Formation/Full", NsPerOp: 1249, AllocBudget: -1})
	if v, _ := Compare(ok, base, 0.25); len(v) != 0 {
		t.Fatalf("within tolerance must pass: %v", v)
	}
	bad := report(Result{Name: "Formation/Full", NsPerOp: 1300, AllocBudget: -1})
	v, _ := Compare(bad, base, 0.25)
	if len(v) != 1 || !strings.Contains(v[0], "regresses baseline") {
		t.Fatalf("want one ns/op violation, got %v", v)
	}
}

func TestCompareMissingEntriesAreNotes(t *testing.T) {
	fresh := report(Result{Name: "New/Bench", NsPerOp: 10, AllocBudget: -1})
	base := report(Result{Name: "Old/Bench", NsPerOp: 10, AllocBudget: -1})
	v, notes := Compare(fresh, base, 0.25)
	if len(v) != 0 {
		t.Fatalf("missing entries must not fail the gate: %v", v)
	}
	if len(notes) != 2 {
		t.Fatalf("want notes for both directions, got %v", notes)
	}
}

func TestSpecsRegistry(t *testing.T) {
	specs := Specs()
	seen := map[string]bool{}
	warmGated := false
	for _, s := range specs {
		if s.Fn == nil {
			t.Fatalf("%s has no body", s.Name)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark name %s", s.Name)
		}
		seen[s.Name] = true
		if s.Name == "CycleSim/WarmRun" && s.AllocBudget == 0 {
			warmGated = true
		}
	}
	if !warmGated {
		t.Fatal("CycleSim/WarmRun must carry the exact 0 allocs/op budget")
	}
	for _, s := range specs {
		switch s.Name {
		case "Formation/Form", "Formation/Full", "Formation/Tail":
			if s.AllocBudget <= 0 {
				t.Errorf("%s must carry an allocation budget", s.Name)
			}
		}
	}
}
