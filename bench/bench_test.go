package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/server"
)

// TestMain lets the test binary serve as the harness's child process,
// so TestSmoke exercises the same process structure as a real run.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {512, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", tc.n, p, beyond(tc.n, p))
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// returns [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1.0 (IQR 5.5 over median 5.5)", got)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: rootLayer, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "http", Start: 10, End: 50},
		{ID: 3, Parent: 2, Layer: "engine", Start: 20, End: 30},
		// Overlaps the http span and runs past the root's end: only the
		// part inside the root counts against the root's self time.
		{ID: 4, Parent: 1, Layer: "load", Start: 40, End: 120},
	}
	self, rootS := selfTimes(spans)
	want := map[string]float64{rootLayer: 10e-9, "http": 30e-9, "engine": 10e-9, "load": 80e-9}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-15 {
			t.Errorf("self[%s] = %g, want %g", layer, self[layer], w)
		}
	}
	if math.Abs(rootS-100e-9) > 1e-15 {
		t.Errorf("root time = %g, want 1e-7", rootS)
	}
}

func TestJudgeBounds(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within bound", steady, scale(steady, 1.03), "lower", verdictUnchanged},
		{"past bound", steady, scale(steady, 1.2), "lower", verdictWorse},
		{"clear gain", steady, scale(steady, 0.8), "lower", verdictImproved},
		{"higher is better", steady, scale(steady, 0.8), "higher", verdictWorse},
		{"spread wider than bound", wide, scale(wide, 0.97), "lower", verdictUnresolved},
		{"wide but every run better", wide, scale(wide, 0.3), "lower", verdictImproved},
	} {
		if got, _ := judge(tc.a, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGoldenMismatchFailsRun runs a smoke sweep against references with
// one cell's cycle count altered and checks that the mismatch fails
// the operation, the repetition and the run.
func TestGoldenMismatchFailsRun(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	cells := sweepCells(true)
	bad := g.Cells[cells[0].Label]
	bad.Cycles++
	g.Cells[cells[0].Label] = bad

	r := newBatch(childSpec{Workload: wSweep, Smoke: true}).run(g)
	if len(r.Mismatches) != 1 || !strings.Contains(r.Mismatches[0], cells[0].Label) || r.Failed != 1 {
		t.Fatalf("mismatches %q, failed %d; want one mismatch on %s", r.Mismatches, r.Failed, cells[0].Label)
	}
	rep := buildReport(&benchmarkFile{}, []string{wSweep},
		map[string][]*workloadRun{wSweep: {{untraced: []*repResult{r}}}}, false)
	line, err := rep.resultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct || !strings.Contains(line, `"correct":false`) {
		t.Errorf("a golden mismatch left the run correct: %s", line)
	}

	// A served reply is checked the same way.
	sr := newRepResult()
	c := &call{resp: server.Response{Class: server.ClassOK, Metrics: &engine.Metrics{Result: 1}}}
	checkCall(sr, g, c, request{prog: corpusID(0), args: coldArgs}, coldTimeout)
	if len(sr.Mismatches) != 1 || sr.Failed != 1 {
		t.Errorf("wrong served result: mismatches %q, failed %d", sr.Mismatches, sr.Failed)
	}
}

func TestSeededInputsAreStable(t *testing.T) {
	c, err := buildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) []byte {
		arr, err := hotStream(c, seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := load.WriteStream(&buf, arr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(1), stream(1)) {
		t.Error("serve-hot stream differs between two builds at seed 1")
	}
	if bytes.Equal(stream(1), stream(2)) {
		t.Error("serve-hot streams at seeds 1 and 2 are identical")
	}
	if !reflect.DeepEqual(coldOrder(1, false), coldOrder(1, false)) || reflect.DeepEqual(coldOrder(1, false), coldOrder(2, false)) {
		t.Error("serve-cold order is not a function of the seed")
	}
	hot := map[int]bool{}
	for _, idx := range hotPrograms(c) {
		hot[idx] = true
	}
	if len(hot) != 4 {
		t.Fatalf("hot programs %v, want 4", hotPrograms(c))
	}
	for seed := int64(1); seed <= 5; seed++ {
		arr, err := hotStream(c, seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arr {
			if !hot[a.ProgramIdx] {
				t.Fatalf("seed %d sends program %d, not a hot program", seed, a.ProgramIdx)
			}
		}
	}
}

// TestGridCellsMatchExperiments checks that the traced path's job list
// is the one cmd/experiments builds: same cells, same cache keys.
func TestGridCellsMatchExperiments(t *testing.T) {
	tr := engine.NewTracer()
	if run := runGrid(engine.New(engine.Config{Workers: nproc(), Tracer: tr}), true); run.err != nil {
		t.Fatal(run.err)
	}
	keys := map[string]string{}
	for _, c := range gridCells(true) {
		k, err := engine.Key(c.Job)
		if err != nil {
			t.Fatal(err)
		}
		keys[cellIdentity(c.Job.Workload, c.Job.Config, c.Job.Sim)] = k
	}
	events := tr.Events()
	if len(events) != len(gridCells(true)) {
		t.Fatalf("experiments ran %d jobs, gridCells lists %d", len(events), len(gridCells(true)))
	}
	for _, ev := range events {
		if want := keys[cellIdentity(ev.Workload, ev.Config, ev.Sim)]; ev.Key != want {
			t.Errorf("%s/%s: experiments key %s, gridCells key %s", ev.Workload, ev.Config, ev.Key, want)
		}
	}
}

func TestBenchmarkDeclaration(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, allWorkloads)
	}
	var setup float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range append(append([]benchMetric(nil), b.EndToEnd...), b.PerLayer...) {
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%s: declared unit %q, harness prints %q", m.Name, m.Unit, unitOf(m.Name))
		}
		if m.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, m.Bound, setup)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced,
// through the real process structure and the real serving binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs hbserved and hbfront")
	}
	traceFile := filepath.Join(t.TempDir(), "spans.ndjson")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace", traceFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricOut
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, m := range b.PerLayer {
			if _, ok := res.Metrics[w+"/"+m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w, m.Name)
			}
		}
		section := stdout.String()[strings.Index(stdout.String(), "== "+w+":"):]
		for _, m := range b.EndToEnd {
			if !strings.Contains(section, "  "+m.Name+" ") {
				t.Errorf("%s: end-to-end metric %s not printed", w, m.Name)
			}
		}
	}
	spans, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{`"layer":"core"`, `"layer":"http"`, `"layer":"` + rootLayer + `"`} {
		if !bytes.Contains(spans, []byte(layer)) {
			t.Errorf("trace has no span with %s", layer)
		}
	}
}
