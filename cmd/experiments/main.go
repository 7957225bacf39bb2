// Command experiments regenerates the paper's evaluation tables and
// figure:
//
//	experiments -table 1      # phase orderings, cycle counts (Table 1)
//	experiments -table 2      # block-selection heuristics (Table 2)
//	experiments -table 3      # SPEC proxy block counts (Table 3)
//	experiments -figure 7     # cycles-vs-blocks correlation (Figure 7)
//	experiments -all          # everything
//
// Use -quick to run a 6-benchmark subset of the microbenchmarks.
//
// Every table cell is an independent compile+simulate job executed by
// internal/engine:
//
//	-j N            run N jobs concurrently (default GOMAXPROCS)
//	-cache-dir DIR  persist the content-addressed result cache to DIR
//	-trace FILE     write a machine-readable JSON execution trace
//	-timeout D      per-job deadline (e.g. 30s; 0 disables)
//
// Table output on stdout is byte-identical to a serial run; the
// engine's human summary goes to stderr. Per-cell failures drop that
// benchmark's row and are reported at the end instead of aborting the
// whole table.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/perf"
	"repro/internal/workloads"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1, 2, or 3)")
	figure := flag.Int("figure", 0, "figure to regenerate (7)")
	all := flag.Bool("all", false, "run every table and figure")
	quick := flag.Bool("quick", false, "use a small benchmark subset")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent compile+simulate jobs")
	cacheDir := flag.String("cache-dir", "", "persist the result cache to this directory")
	traceOut := flag.String("trace", "", "write a JSON execution trace to this file")
	traceStream := flag.String("trace-stream", "", "stream per-job trace events to this file as NDJSON while running")
	timeout := flag.Duration("timeout", 0, "per-job deadline (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "experiments")
		return
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)
	defer stopProf()

	cache := engine.NewCache()
	if *cacheDir != "" {
		var err error
		cache, err = engine.NewDiskCache(*cacheDir)
		fail(err)
	}
	tracer := engine.NewTracer()
	var streamFile *os.File
	if *traceStream != "" {
		f, err := os.Create(*traceStream)
		fail(err)
		defer f.Close()
		streamFile = f
		tracer = engine.NewStreamTracer(f)
	}

	// A table run interrupted mid-sweep still leaves its partial trace
	// behind: the tracer flushes events per job, so whatever finished
	// is already observable — write it out, sync the NDJSON stream,
	// and finish the profiles before exiting 128+signum.
	stopSig := perf.OnShutdownSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "experiments: %s: flushing partial trace and profiles\n", sig)
		if *traceOut != "" {
			if f, err := os.Create(*traceOut); err == nil {
				_ = tracer.WriteJSON(f)
				_ = f.Close()
			}
		}
		if streamFile != nil {
			_ = streamFile.Sync()
			_ = streamFile.Close()
		}
		stopProf()
	})
	defer stopSig()
	eng := engine.New(engine.Config{
		Workers: *jobs,
		Cache:   cache,
		Timeout: *timeout,
		Tracer:  tracer,
	})

	micro := workloads.Micro()
	if *quick {
		micro = subset(micro, "ammp_1", "bzip2_3", "gzip_1", "parser_1", "sieve", "matrix_1")
	}
	spec := workloads.Spec()

	// Per-cell errors are collected here and reported at the end; the
	// successfully measured rows still print.
	var cellErrs []error
	note := func(err error) {
		if err != nil {
			cellErrs = append(cellErrs, err)
		}
	}

	ran := false
	var t1 *experiments.Table1Result
	runT1 := func() {
		var err error
		t1, err = experiments.Table1Engine(eng, micro)
		note(err)
		fmt.Println("Table 1: % cycle improvement over basic blocks, by phase ordering")
		fmt.Println("(m/t/u/p = blocks merged / tail duplicated / unrolled / peeled)")
		fmt.Print(t1.Format())
		fmt.Println()
	}

	if *all || *table == 1 {
		runT1()
		ran = true
	}
	if *all || *table == 2 {
		t2, err := experiments.Table2Engine(eng, micro)
		note(err)
		fmt.Println("Table 2: % cycle improvement over basic blocks, by heuristic")
		fmt.Print(t2.Format())
		fmt.Println()
		ran = true
	}
	if *all || *table == 3 {
		t3, err := experiments.Table3Engine(eng, spec)
		note(err)
		fmt.Println("Table 3: % block-count improvement over basic blocks (SPEC proxies)")
		fmt.Print(t3.Format())
		fmt.Println()
		ran = true
	}
	if *all || *figure == 7 {
		if t1 == nil {
			runT1()
		}
		f7 := experiments.Figure7(t1)
		fmt.Println("Figure 7: cycle-count reduction vs block-count reduction")
		fmt.Print(f7.Format())
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		fail(tracer.WriteJSON(f))
		fail(f.Close())
	}
	fmt.Fprintln(os.Stderr, tracer.Summary().Format())
	fmt.Fprintln(os.Stderr, cache.Stats().Format())
	if fs := eng.FlightStats(); fs.Coalesced > 0 {
		fmt.Fprintf(os.Stderr, "engine: program flight: %d compiles, %d jobs joined one\n",
			fs.Flights, fs.Coalesced)
	}
	if len(cellErrs) > 0 {
		for _, err := range cellErrs {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func subset(ws []workloads.Workload, names ...string) []workloads.Workload {
	var out []workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(ws, n)
		fail(err)
		out = append(out, *w)
	}
	return out
}
