// Package perf holds the repository's performance harness: a registry
// of the headline benchmarks with per-benchmark allocation budgets, a
// machine-readable report format (BENCH_4.json), and the comparison
// logic behind the CI bench-gate.
//
// The benchmark bodies live here — not in a _test.go file — so that
// both `go test -bench` (via bench_test.go wrappers) and cmd/hbbench
// (via testing.Benchmark) run the exact same code.
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/sim/timing"
	"repro/internal/trips"
	"repro/internal/workloads"
)

// Spec is one registered benchmark.
type Spec struct {
	// Name is hierarchical ("CycleSim/WarmRun"); bench_test.go splits
	// on the first slash to group sub-benchmarks.
	Name string
	// AllocBudget is the maximum allocs/op the bench-gate allows, or
	// -1 for no allocation budget. A budget of 0 is exact: the steady
	// state either allocates or it does not. A positive budget is the
	// count measured when it was set plus a margin of about 4%: the
	// count drifts slightly from run to run (a GC empties sync.Pool
	// caches), and the margin absorbs that drift while still failing a
	// change that allocates per merge again.
	AllocBudget int64
	// Fn is the benchmark body. Every body calls b.ReportAllocs.
	Fn func(b *testing.B)
}

// Specs returns the benchmark registry. The slice is freshly built on
// each call; callers may reorder it.
func Specs() []Spec {
	return []Spec{
		{Name: "Formation/Frontend", AllocBudget: -1, Fn: benchFrontend},
		{Name: "Formation/Profile", AllocBudget: -1, Fn: benchProfile},
		// Formation's budgets hold its per-merge work to the hyperblock:
		// measured at 12,036-12,053, 12,748-12,764 and
		// 142,317-144,280 allocs/op.
		{Name: "Formation/Form", AllocBudget: 12500, Fn: benchForm},
		{Name: "Formation/Regalloc", AllocBudget: -1, Fn: benchRegalloc},
		{Name: "Formation/Full", AllocBudget: 13250, Fn: benchFormationFull},
		{Name: "Formation/Tail", AllocBudget: 150000, Fn: benchTail},
		{Name: "Formation/Instantiate", AllocBudget: -1, Fn: benchInstantiate},
		{Name: "CycleSim/Clone", AllocBudget: -1, Fn: benchClone},
		{Name: "CycleSim/ColdRun", AllocBudget: -1, Fn: benchColdRun},
		// The tentpole guarantee: once the machine is warm, re-running
		// a program does not allocate (issue ring, pooled frames,
		// converged predictor table, reused Uses buffers).
		{Name: "CycleSim/WarmRun", AllocBudget: 0, Fn: benchWarmRun},
	}
}

// mustWorkload fetches a micro workload or fails the benchmark.
func mustWorkload(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, err := workloads.ByName(workloads.Micro(), name)
	if err != nil {
		b.Fatal(err)
	}
	return *w
}

// formationOpts is the headline formation configuration: the fully
// convergent ordering on gzip_1 with a training profile.
func formationOpts(w workloads.Workload) compiler.Options {
	return compiler.Options{
		Ordering:    compiler.OrderIUPO1,
		ProfileFn:   "main",
		ProfileArgs: w.TrainArgs,
	}
}

// benchFrontend measures parse + check + for-unroll + lowering.
func benchFrontend(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.CompileUnrolled(w.Source, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// prepared returns gzip_1 lowered, scalar-optimized, and
// call-split — the program state formation starts from.
func prepared(b *testing.B, w workloads.Workload) *ir.Program {
	b.Helper()
	prog, err := lang.CompileUnrolled(w.Source, 4)
	if err != nil {
		b.Fatal(err)
	}
	opt.OptimizeProgram(prog)
	compiler.SplitCallsProgram(prog)
	return prog
}

// benchProfile measures the functional-simulator training run.
func benchProfile(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	prog := prepared(b, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := profile.Collect(ir.CloneProgram(prog), "main", w.TrainArgs...); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForm measures convergent hyperblock formation proper
// (merge/if-convert iteration with head duplication and iterative
// optimization), excluding the front end and profiling.
func benchForm(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	prog := prepared(b, w)
	prof, _, err := profile.Collect(ir.CloneProgram(prog), "main", w.TrainArgs...)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Cons: trips.Default(), HeadDup: true, IterOpt: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FormProgram(ir.CloneProgram(prog), cfg, prof)
	}
}

// benchRegalloc measures register allocation + reverse if-conversion
// on the fully formed program.
func benchRegalloc(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	res, err := compiler.Compile(w.Source, formationOpts(w))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regalloc.AllocateProgram(ir.CloneProgram(res.Prog), regalloc.Options{})
	}
}

// benchFormationFull measures the whole pipeline, matching the
// historical BenchmarkFormation body.
func benchFormationFull(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(w.Source, formationOpts(w)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTail compiles serve-cold's slowest corpus program, number 87
// of corpus seed 1, under (IUPO) without a profile, as hbserved does:
// a large function grown over some 1,500 committed merges, where
// whole-function work per merge would dominate.
func benchTail(b *testing.B) {
	src := fuzz.Generate(1+87, fuzz.GenConfig{})
	opts := compiler.Options{Ordering: compiler.OrderIUPO1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstantiate measures the same pipeline as Formation/Full when
// a recorded skeleton is replayed instead of searched: the formation
// decisions are re-applied with only their preconditions re-checked,
// and the profile training run is skipped (replay never consults it).
// The ratio Instantiate/Full is the skeleton tier's per-compile win
// on a skeleton hit.
func benchInstantiate(b *testing.B) {
	w := mustWorkload(b, "gzip_1")
	rec := formationOpts(w)
	rec.RecordFormTrace = true
	res, err := compiler.Compile(w.Source, rec)
	if err != nil {
		b.Fatal(err)
	}
	if res.FormTrace == nil {
		b.Fatal("no skeleton recorded")
	}
	opts := formationOpts(w)
	opts.FormTrace = res.FormTrace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := compiler.Compile(w.Source, opts)
		if err != nil {
			b.Fatal(err)
		}
		if r.Replay.Fallbacks != 0 {
			b.Fatalf("skeleton replay fell back (%d functions)", r.Replay.Fallbacks)
		}
	}
}

// compiledMatrix compiles the cycle-simulator workload once.
func compiledMatrix(b *testing.B) (*ir.Program, workloads.Workload) {
	b.Helper()
	w := mustWorkload(b, "matrix_1")
	res, err := compiler.Compile(w.Source, formationOpts(w))
	if err != nil {
		b.Fatal(err)
	}
	return res.Prog, w
}

// benchClone measures program cloning, the per-cell setup cost the
// engine pays before every simulation.
func benchClone(b *testing.B) {
	prog, _ := compiledMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.CloneProgram(prog)
	}
}

// benchColdRun measures clone + machine construction + full run,
// matching the historical BenchmarkCycleSim body.
func benchColdRun(b *testing.B) {
	prog, w := compiledMatrix(b)
	b.ReportAllocs()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := timing.New(ir.CloneProgram(prog), timing.DefaultConfig())
		if _, err := m.Run("main", w.Args...); err != nil {
			b.Fatal(err)
		}
		instrs += m.Stats.Executed
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// benchWarmRun measures the steady state: one machine re-running the
// program, so pooled frames, the issue ring, and the converged
// predictor table are all reused. This is the path with the exact
// 0 allocs/op budget.
func benchWarmRun(b *testing.B) {
	prog, w := compiledMatrix(b)
	m := timing.New(prog, timing.DefaultConfig())
	// Warm: converge the predictor table and size every scratch
	// buffer before measuring.
	for i := 0; i < 3; i++ {
		m.Output = m.Output[:0]
		if _, err := m.Run("main", w.Args...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Output = m.Output[:0]
		if _, err := m.Run("main", w.Args...); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one benchmark's measurement in a Report.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// AllocBudget mirrors the registry's budget at measurement time
	// (-1 = ungated), so a committed baseline documents its gates.
	AllocBudget int64 `json:"alloc_budget"`
}

// Report is the machine-readable document hbbench emits
// (BENCH_4.json).
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Results   []Result `json:"results"`
	// Extras are scalar non-timing measurements recorded alongside the
	// benchmarks (e.g. the hotkey-profile skeleton hit-rate measured by
	// an hbload run). Compare only notes them: each has its own gate
	// where it is measured (hbload -min-reuse-rate in CI).
	Extras map[string]float64 `json:"extras,omitempty"`
}

// Schema is the current report schema identifier.
const Schema = "hbbench/1"

// Collect runs every registered benchmark through testing.Benchmark
// and assembles the report. The caller controls iteration time via
// the standard -test.benchtime flag (see cmd/hbbench).
func Collect(progress func(name string)) Report {
	return CollectMatching(nil, progress)
}

// CollectMatching is Collect restricted to benchmark names containing
// the given substring ("" or nil-equivalent: all). Compare gates only
// names present in both reports, so a filtered report can be checked
// against a subset baseline (hbbench -run).
func CollectMatching(match func(name string) bool, progress func(name string)) Report {
	rep := Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range Specs() {
		if match != nil && !match(s.Name) {
			continue
		}
		if progress != nil {
			progress(s.Name)
		}
		r := testing.Benchmark(s.Fn)
		rep.Results = append(rep.Results, Result{
			Name:        s.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			AllocBudget: s.AllocBudget,
		})
	}
	return rep
}

// Lookup returns the named result, or nil.
func (r *Report) Lookup(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Compare gates fresh against base: every fresh result must stay
// within its allocation budget, and any result present in both
// reports must not regress ns/op by more than nsTol (0.25 = 25%).
// The returned violations are empty when the gate passes; notes lists
// non-fatal observations (e.g. benchmarks missing from the baseline).
func Compare(fresh, base *Report, nsTol float64) (violations, notes []string) {
	for _, f := range fresh.Results {
		if f.AllocBudget >= 0 && f.AllocsPerOp > f.AllocBudget {
			violations = append(violations,
				fmt.Sprintf("%s: %d allocs/op exceeds budget %d",
					f.Name, f.AllocsPerOp, f.AllocBudget))
		}
		b := base.Lookup(f.Name)
		if b == nil {
			notes = append(notes, fmt.Sprintf("%s: not in baseline, ns/op ungated", f.Name))
			continue
		}
		if limit := b.NsPerOp * (1 + nsTol); f.NsPerOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: %.0f ns/op regresses baseline %.0f by more than %.0f%%",
					f.Name, f.NsPerOp, b.NsPerOp, 100*nsTol))
		}
	}
	for _, b := range base.Results {
		if fresh.Lookup(b.Name) == nil {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not measured", b.Name))
		}
	}
	for k, v := range base.Extras {
		if _, ok := fresh.Extras[k]; !ok {
			notes = append(notes, fmt.Sprintf("extra %s=%g: recorded in baseline, gated where measured", k, v))
		}
	}
	sort.Strings(violations)
	sort.Strings(notes)
	return violations, notes
}
