// Command bench is the repository benchmark. It regenerates the
// paper's grid, sweeps the cycle simulator over timing configurations,
// and serves the program corpus through the real hbserved and hbfront
// binaries; it prints every end-to-end and per-layer metric by name
// and unit, checks every output against the frozen references in
// golden/, and exits non-zero on any mismatch. Run it from the root of
// a checkout:
//
//	bash bench/run.sh [-workload W] [-seed S] [-seconds N] [-runs N]
//	                  [-out F] [-trace 0|1|F] [-smoke] [-regen-golden]
//	bash bench/run.sh -compare PARENT.json CHANGE.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics that
// BENCHMARK.json declares, or its per-layer metrics when tracing. See
// README.md for the workloads, the metrics and how to compare commits.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// The workloads, in run order.
const (
	wGrid  = "grid"
	wSweep = "sim-sweep"
	wCold  = "serve-cold"
	wHot   = "serve-hot"
)

var allWorkloads = []string{wGrid, wSweep, wCold, wHot}

func isServing(w string) bool { return w == wCold || w == wHot }

// childEnv carries a child process's spec; readyLine is the line a
// batch child prints once its engine and job list exist.
const (
	childEnv  = "HBBENCH_CHILD"
	readyLine = "hbbench: ready"
)

// setupSamples is how many extra set-ups a workload measures besides
// the one each repetition pays, so that setup_s is a median.
func setupSamples(smoke bool) int {
	if smoke {
		return 1
	}
	return 20
}

// orphanSignal is delivered to a child process when the process that
// started it dies, so an interrupted run leaves nothing running.
var orphanSignal = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

func nproc() int { return runtime.NumCPU() }

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(runChild(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childSpec tells a child process which repetition to run.
type childSpec struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Smoke     bool    `json:"smoke"`
	Traced    bool    `json:"traced"`
	SetupOnly bool    `json:"setup_only"`
	Rep       int     `json:"rep"`
	// Bin holds the hbserved and hbfront binaries; Work is a scratch
	// directory; TraceFile receives the spans (NDJSON, appended).
	Bin       string `json:"bin"`
	Work      string `json:"work"`
	TraceFile string `json:"trace_file"`
}

// runChild runs one repetition in a fresh process and prints its
// result as the last line of standard output.
func runChild(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "hbbench child:", err)
		return 2
	}
	r, err := childRep(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbbench child %s: %v\n", spec.Workload, err)
		return 1
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench child:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func childRep(spec childSpec) (*repResult, error) {
	var rec *recorder
	if spec.Traced {
		rec = newRecorder()
	}
	var r *repResult
	var err error
	if isServing(spec.Workload) {
		r, err = serveRep(spec, rec)
	} else {
		b := newBatch(spec)
		fmt.Println(readyLine)
		if spec.SetupOnly {
			return newRepResult(), nil
		}
		var g *golden
		if g, err = loadGolden(); err != nil {
			return nil, err
		}
		if rec != nil {
			r = b.runTraced(g, rec)
		} else {
			r = b.run(g)
		}
	}
	if err != nil || rec == nil || spec.TraceFile == "" || spec.SetupOnly {
		return r, err
	}
	f, err := os.OpenFile(spec.TraceFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeNDJSON(f, rec.snapshot()); err != nil {
		f.Close()
		return nil, err
	}
	return r, f.Close()
}

// options are the parent's settings for one invocation.
type options struct {
	seed      int64
	seconds   float64
	smoke     bool
	traceFile string // "" when untraced
	bin, work string
	stderr    io.Writer
}

// workloadRun is everything measured for one workload in one run.
type workloadRun struct {
	untraced, traced []*repResult
	setup            []float64
}

// value returns a metric's value for this run: the median over the
// untraced repetitions, or over the traced ones for metrics only a
// traced repetition measures.
func (wr *workloadRun) value(w, name string) (float64, bool) {
	switch name {
	case "setup_s":
		return median(wr.setup), len(wr.setup) > 0
	case "trace.overhead_pct":
		p := primary(w)
		u, ok1 := medianOf(wr.untraced, p)
		t, ok2 := medianOf(wr.traced, p)
		if !ok1 || !ok2 || u == 0 {
			return 0, false
		}
		return 100 * (t - u) / u, true
	}
	if v, ok := medianOf(wr.untraced, name); ok {
		return v, true
	}
	return medianOf(wr.traced, name)
}

// primary is the end-to-end metric tracing overhead is measured on.
func primary(w string) string {
	if w == wHot {
		return "latency_p50_ms"
	}
	return "wall_s"
}

func medianOf(reps []*repResult, name string) (float64, bool) {
	var xs []float64
	for _, r := range reps {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs), len(xs) > 0
}

func (wr *workloadRun) reps() []*repResult {
	return append(append([]*repResult(nil), wr.untraced...), wr.traced...)
}

// measure runs one workload: the extra set-ups, then repetitions until
// o.seconds are spent (at least one); when tracing, each untraced
// repetition is followed by a traced one and the budget doubles.
func measure(o *options, w string) (*workloadRun, error) {
	wr := &workloadRun{}
	spec := childSpec{Workload: w, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Bin: o.bin, Work: o.work, TraceFile: o.traceFile}
	for i := 0; i < setupSamples(o.smoke); i++ {
		s := spec
		s.SetupOnly, s.Rep = true, -1-i
		if _, err := o.child(s, wr); err != nil {
			return nil, err
		}
	}
	// Traced and untraced repetitions alternate, so drift in the
	// machine's speed does not show up as tracing overhead.
	passes := []bool{false}
	if o.traceFile != "" {
		passes = append(passes, true)
	}
	start := time.Now()
	budget := o.seconds * float64(len(passes))
	for rep := 0; rep == 0 || time.Since(start).Seconds() < budget; rep++ {
		for _, traced := range passes {
			s := spec
			s.Rep, s.Traced = rep, traced
			r, err := o.child(s, wr)
			if err != nil {
				return nil, err
			}
			if traced {
				wr.traced = append(wr.traced, r)
			} else {
				wr.untraced = append(wr.untraced, r)
			}
		}
	}
	return wr, nil
}

// child runs one child process and records its set-up time. A batch
// child's set-up is timed from its start to its ready line, and its
// CPU time and peak RSS are the workload's; a serving child times its
// targets' set-up itself, and its own CPU time is the load generator's.
func (o *options) child(spec childSpec, wr *workloadRun) (*repResult, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), fmt.Sprintf("GOMAXPROCS=%d", nproc()))
	cmd.SysProcAttr = orphanSignal
	cmd.Stderr = o.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var ready time.Duration
	last := ""
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if line := sc.Text(); line == readyLine {
			ready = time.Since(start)
		} else if line != "" {
			last = line
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s child (rep %d): %w", spec.Workload, spec.Rep, err)
	}
	r := newRepResult()
	if err := json.Unmarshal([]byte(last), r); err != nil {
		return nil, fmt.Errorf("%s child (rep %d): bad result line: %w", spec.Workload, spec.Rep, err)
	}
	var cpuS, rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		rssMB = float64(ru.Maxrss) / 1024
	}
	if isServing(spec.Workload) {
		wr.setup = append(wr.setup, r.Setup...)
		// wait4 counts the child's reaped children, the targets, too.
		r.set("load.cpu_s", cpuS-r.Metrics["cpu_s"])
	} else {
		wr.setup = append(wr.setup, ready.Seconds())
		r.set("cpu_s", cpuS)
		r.set("peak_rss_mb", rssMB)
	}
	return r, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(allWorkloads, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "workload seed: serve-cold's order and serve-hot's arrival stream (2 is the holdout)")
	seconds := fs.Float64("seconds", 15, "measured time per workload: repetitions run until it is spent, at least one; serve-hot's phases are sized from it")
	runs := fs.Int("runs", 1, "repeat the whole measurement this many times and report medians and quartiles")
	out := fs.String("out", "", "write every run's values to this JSON file (input to -compare)")
	trace := fs.String("trace", "0", "1 or a file: also run each workload traced, report per-layer metrics and write the spans as NDJSON (1: .bench_build/trace.ndjson)")
	compare := fs.String("compare", "", "compare -out files: -compare PARENT.json CHANGE.json (quoted glob patterns merge several runs per side)")
	smoke := fs.Bool("smoke", false, "run every workload at tiny sizes")
	regen := fs.Bool("regen-golden", false, "recompute golden/ from the code at hand (see README.md for when that is legitimate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "hbbench: "+format+"\n", a...) }
	fail := func(err error) int {
		logf("%v", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	bench, err := readBenchmark(root)
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fail(errors.New("-compare takes two files or glob patterns: -compare PARENT.json CHANGE.json"))
		}
		if err := compareFiles(bench, *compare, fs.Arg(0), stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *regen {
		if err := regenGolden(root, logf); err != nil {
			return fail(err)
		}
		return 0
	}
	ws := allWorkloads
	if *workload != "" {
		ws = []string{*workload}
	}
	for _, w := range ws {
		if !slices.Contains(allWorkloads, w) {
			return fail(fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(allWorkloads, ", ")))
		}
	}
	if *runs < 1 || *seconds < 0 {
		return fail(errors.New("-runs must be positive and -seconds not negative"))
	}

	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	o := &options{seed: *seed, seconds: *seconds, smoke: *smoke, work: work, stderr: stderr}
	if o.smoke {
		o.seconds = 0 // one repetition each
	}
	switch *trace {
	case "0", "":
	case "1":
		o.traceFile = filepath.Join(buildDir, "trace.ndjson")
	default:
		if o.traceFile, err = filepath.Abs(*trace); err != nil {
			return fail(err)
		}
	}
	if o.traceFile != "" {
		if err := os.WriteFile(o.traceFile, nil, 0o644); err != nil {
			return fail(err)
		}
	}
	for _, w := range ws {
		if isServing(w) {
			o.bin = filepath.Join(work, "bin")
			t := time.Now()
			if err := buildTargets(root, o.bin, stderr); err != nil {
				return fail(err)
			}
			logf("built hbserved and hbfront in %.1fs (not a metric)", time.Since(t).Seconds())
			break
		}
	}

	results := map[string][]*workloadRun{}
	for i := 0; i < *runs; i++ {
		for _, w := range ws {
			logf("run %d/%d: %s", i+1, *runs, w)
			wr, err := measure(o, w)
			if err != nil {
				return fail(err)
			}
			results[w] = append(results[w], wr)
		}
	}
	rep := buildReport(bench, ws, results, o.traceFile != "")
	rep.print(stdout)
	if *out != "" {
		if err := rep.writeOut(*out, *seed, *seconds); err != nil {
			return fail(err)
		}
	}
	line, err := rep.resultLine(len(ws) > 1)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct {
		return 1
	}
	return 0
}

// findRoot locates the repository root: the working directory or its
// parent, whichever holds the repro module.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module repro\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root: no repro module in %s or its parent", wd)
}

// buildTargets builds the serving binaries from the checkout.
func buildTargets(root, dir string, stderr io.Writer) error {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/hbserved", "./cmd/hbfront")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building hbserved and hbfront: %w", err)
	}
	return nil
}
