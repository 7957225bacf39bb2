// Command hbbench runs the repository's benchmark registry
// (internal/perf) outside `go test`, emits a machine-readable report,
// and optionally gates it against a committed baseline:
//
//	hbbench [-short] [-benchtime 2s] [-out BENCH_4.json]
//	        [-compare BENCH_4.json] [-tol 0.25]
//	        [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz]
//
// With -compare, the exit status is 1 when any benchmark exceeds its
// allocation budget (see perf.Spec.AllocBudget) or regresses ns/op
// past the baseline by more than -tol
// (generous by default, so wall-time noise does not flake CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/perf"
)

func main() {
	short := flag.Bool("short", false, "quick mode: 0.5s per benchmark instead of -benchtime")
	benchtime := flag.String("benchtime", "2s", "per-benchmark measurement time (testing -benchtime syntax)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON report to gate against")
	run := flag.String("run", "", "only run benchmarks whose name contains this substring")
	extra := flag.String("extra", "", "comma-separated key=value scalars recorded in the report's extras section (e.g. hotkey_skeleton_hit_rate=0.75)")
	tol := flag.Float64("tol", 0.25, "allowed fractional ns/op regression vs the baseline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	testing.Init()
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hbbench")
		return
	}

	bt := *benchtime
	if *short {
		bt = "0.5s"
	}
	// testing.Benchmark reads the standard test flags; set the
	// measurement time through the same knob `go test` uses.
	fail(flag.Set("test.benchtime", bt))

	stop, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	defer stop()
	// A benchmark run killed mid-flight still writes its profiles.
	stopSig := perf.OnShutdownSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "hbbench: %s: flushing profiles before exit\n", sig)
		stop()
	})
	defer stopSig()

	var match func(string) bool
	if *run != "" {
		match = func(name string) bool { return strings.Contains(name, *run) }
	}
	rep := perf.CollectMatching(match, func(name string) {
		fmt.Fprintf(os.Stderr, "hbbench: running %s\n", name)
	})
	if len(rep.Results) == 0 {
		fail(fmt.Errorf("no benchmarks match -run %q", *run))
	}
	if *extra != "" {
		rep.Extras = map[string]float64{}
		for _, kv := range strings.Split(*extra, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				fail(fmt.Errorf("-extra entry %q is not key=value", kv))
			}
			x, err := strconv.ParseFloat(v, 64)
			fail(err)
			rep.Extras[k] = x
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fail(err)
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	fail(enc.Encode(rep))

	if *compare == "" {
		return
	}
	data, err := os.ReadFile(*compare)
	fail(err)
	var base perf.Report
	fail(json.Unmarshal(data, &base))
	if base.Schema != perf.Schema {
		fail(fmt.Errorf("baseline %s has schema %q, want %q", *compare, base.Schema, perf.Schema))
	}
	violations, notes := perf.Compare(&rep, &base, *tol)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "hbbench: note:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "hbbench: FAIL:", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hbbench: gate passed (%d benchmarks vs %s, tol %.0f%%)\n",
		len(rep.Results), *compare, 100**tol)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
}
