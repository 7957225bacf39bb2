package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchMetric is one metric BENCHMARK.json declares.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// metrics its result line carries and the bounds -compare applies.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmark(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// workloadReport is one workload's values across runs.
type workloadReport struct {
	name      string
	values    map[string][]float64 // per run
	bases     map[string]string
	self      map[string]float64 // traced self seconds: mean over reps, median over runs
	reps      int
	traced    int
	setups    int
	attempted int
	failed    int
	crashes   []string
	notes     []string
	wrong     []string
}

// report is everything one invocation measured.
type report struct {
	bench   *benchmarkFile
	traced  bool
	correct bool
	ws      []*workloadReport
}

func buildReport(bench *benchmarkFile, names []string, results map[string][]*workloadRun, traced bool) *report {
	rep := &report{bench: bench, traced: traced, correct: true}
	for _, w := range names {
		wrep := &workloadReport{name: w, values: map[string][]float64{}, bases: map[string]string{}, self: map[string]float64{}}
		selfRuns := map[string][]float64{}
		for _, wr := range results[w] {
			metrics := map[string]bool{"setup_s": true, "trace.overhead_pct": true}
			for _, r := range wr.reps() {
				for k := range r.Metrics {
					metrics[k] = true
				}
			}
			for k := range metrics {
				if v, ok := wr.value(w, k); ok {
					wrep.values[k] = append(wrep.values[k], v)
				}
			}
			runSelf := map[string]float64{}
			for _, r := range wr.traced {
				for layer, s := range r.Self {
					runSelf[layer] += s / float64(len(wr.traced))
				}
			}
			for layer, s := range runSelf {
				selfRuns[layer] = append(selfRuns[layer], s)
			}
			wrep.reps += len(wr.untraced)
			wrep.traced += len(wr.traced)
			wrep.setups += len(wr.setup)
			for _, r := range wr.reps() {
				for k, b := range r.Bases {
					wrep.bases[k] = b
				}
				wrep.attempted += r.Attempted
				wrep.failed += r.Failed
				wrep.crashes = append(wrep.crashes, r.Crashes...)
				wrep.notes = append(wrep.notes, r.Notes...)
				wrep.wrong = append(wrep.wrong, r.Mismatches...)
			}
		}
		for layer, xs := range selfRuns {
			wrep.self[layer] = median(xs)
		}
		if len(wrep.wrong) > 0 {
			rep.correct = false
		}
		rep.ws = append(rep.ws, wrep)
	}
	return rep
}

// declared returns the names of the metrics the result line carries.
func (r *report) declared() []benchMetric {
	if r.traced {
		return r.bench.PerLayer
	}
	return r.bench.EndToEnd
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	e2e := map[string]bool{}
	for _, m := range r.bench.EndToEnd {
		e2e[m.Name] = true
	}
	for _, wr := range r.ws {
		fmt.Fprintf(w, "== %s: %d rep(s), %d traced, %d set-ups; %d ops, %d failed ==\n",
			wr.name, wr.reps, wr.traced, wr.setups, wr.attempted, wr.failed)
		fmt.Fprintln(w, "end to end:")
		for _, m := range r.bench.EndToEnd {
			wr.printMetric(w, m.Name)
		}
		er, base := ratio(wr.failed, wr.attempted)
		fmt.Fprintf(w, "  %-28s %14.4f %-12s (%s)\n", "error_ratio", er, "failed/att.", base)
		fmt.Fprintln(w, "per layer:")
		for _, name := range sortedKeys(wr.values) {
			if !e2e[name] {
				wr.printMetric(w, name)
			}
		}
		if len(wr.self) > 0 {
			fmt.Fprintln(w, "self time by layer (traced, per repetition):")
			total := 0.0
			for _, s := range wr.self {
				total += s
			}
			layers := sortedKeys(wr.self)
			sort.SliceStable(layers, func(i, j int) bool { return wr.self[layers[i]] > wr.self[layers[j]] })
			for _, l := range layers {
				fmt.Fprintf(w, "  %-16s %10.4f s %6.1f%%\n", l, wr.self[l], 100*wr.self[l]/total)
			}
		}
		if late, ok := wr.values["load.late_p95_ms"]; ok && median(late) > 5 {
			fmt.Fprintf(w, "INVALID: generator lateness p95 %.2f ms is above 5 ms; latencies are not trustworthy\n", median(late))
		}
		for _, c := range wr.crashes {
			fmt.Fprintf(w, "target crash: %s\n", c)
		}
		for _, m := range wr.wrong {
			fmt.Fprintf(w, "MISMATCH: %s\n", m)
		}
		for _, n := range wr.notes {
			fmt.Fprintf(w, "failed: %s\n", n)
		}
	}
}

func (wr *workloadReport) printMetric(w io.Writer, name string) {
	xs := wr.values[name]
	if len(xs) == 0 {
		return
	}
	line := fmt.Sprintf("  %-28s %14.4f %-12s", name, median(xs), unitOf(name))
	if len(xs) > 1 {
		q1, q3 := quartiles(xs)
		line += fmt.Sprintf(" [%.4f, %.4f] spread %.1f%%", q1, q3, 100*spread(xs))
	}
	if b := wr.bases[name]; b != "" {
		line += " (" + b + ")"
	}
	fmt.Fprintln(w, strings.TrimRight(line, " "))
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON line. With several workloads the
// metric names are prefixed with the workload.
func (r *report) resultLine(prefixed bool) (string, error) {
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: r.correct, Metrics: map[string]metricOut{}}
	for _, wr := range r.ws {
		line.Attempted += wr.attempted
		line.Failed += wr.failed
		for _, m := range r.declared() {
			xs := wr.values[m.Name]
			if len(xs) == 0 {
				return "", fmt.Errorf("%s did not measure %s", wr.name, m.Name)
			}
			name := m.Name
			if prefixed {
				name = wr.name + "/" + name
			}
			line.Metrics[name] = metricOut{Value: median(xs), Unit: m.Unit}
		}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

// outFile is the -out format: every run's value of every metric.
type outFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]outWorkloadRuns `json:"workloads"`
}

type outWorkloadRuns struct {
	Values    map[string][]float64 `json:"values"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Crashes   []string             `json:"crashes,omitempty"`
}

func (r *report) writeOut(path string, seed int64, seconds float64) error {
	of := outFile{Seed: seed, Seconds: seconds, Workloads: map[string]outWorkloadRuns{}}
	for _, wr := range r.ws {
		of.Workloads[wr.name] = outWorkloadRuns{Values: wr.values, Attempted: wr.attempted, Failed: wr.failed, Crashes: wr.crashes}
	}
	raw, err := json.MarshalIndent(of, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// readRuns merges the runs of every -out file a glob pattern matches,
// in name order, so alternating pairs kept in numbered files line up.
func readRuns(pattern string) (map[string]outWorkloadRuns, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no file matches %s", pattern)
	}
	merged := map[string]outWorkloadRuns{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var of outFile
		if err := json.Unmarshal(raw, &of); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, runs := range of.Workloads {
			m := merged[w]
			if m.Values == nil {
				m.Values = map[string][]float64{}
			}
			for k, v := range runs.Values {
				m.Values[k] = append(m.Values[k], v...)
			}
			merged[w] = m
		}
	}
	return merged, nil
}

// crashFree drops the runs in which a target crashed.
func crashFree(runs outWorkloadRuns, name string) []float64 {
	crashes := runs.Values["target_crashes"]
	var out []float64
	for i, v := range runs.Values[name] {
		if i < len(crashes) && crashes[i] > 0 {
			continue
		}
		out = append(out, v)
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric,
// judging the change's runs (files matching bPattern) against the
// parent's (aPattern) by the metric's bound.
func compareFiles(bench *benchmarkFile, aPattern, bPattern string, w io.Writer) error {
	a, err := readRuns(aPattern)
	if err != nil {
		return err
	}
	b, err := readRuns(bPattern)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "parent", "change", "worse", "spreadA", "spreadB", "verdict")
	for _, wl := range allWorkloads {
		ra, okA := a[wl]
		rb, okB := b[wl]
		if !okA || !okB {
			continue
		}
		for _, m := range bench.EndToEnd {
			xa, xb := crashFree(ra, m.Name), crashFree(rb, m.Name)
			verdict, worse := judge(xa, xb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-11s %-16s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%, %d vs %d runs)\n",
				wl, m.Name, median(xa), median(xb), 100*worse, 100*spread(xa), 100*spread(xb),
				verdict, 100*m.Bound, len(xa), len(xb))
		}
	}
	return nil
}
