// Command hbload replays a seeded, profile-shaped request stream
// against an hbserved or hbfront endpoint and reports goodput,
// shed/latency breakdowns, and SLO verdicts.
//
// The stream is a pure function of (-profile, -seed): the same pair
// produces a byte-identical arrival schedule (see -stream), so a red
// overload run replays exactly. Programs come from the seeded
// workload corpus (internal/workloads/corpus), clustered by CFG
// shape; the cluster ID travels as the request's workload class and
// the report breaks latency and goodput down per class.
//
//	hbload -url http://127.0.0.1:8080 -profile steady -seed 1
//	hbload -profile bursty -seed 1 -n 96 -duration 2s \
//	       -slo -goodput-floor 0.10 -grace 500ms
//	hbload -profile bursty -seed 1 -dry-run -stream a.ndjson
//
// Exit status: 0 — run completed and every requested check passed;
// 1 — an SLO or reuse-rate violation; 2 — the harness itself
// failed (bad flags, unreachable endpoint).
//
// -slo arms the goodput SLO check (floor, grace, p50 bound, shed
// Retry-After jitter). -dry-run builds and writes the schedule without
// sending any traffic — the CI replayability gate runs it twice and
// byte-compares the -stream files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/load"
	"repro/internal/workloads/corpus"
)

func main() {
	var (
		url        = flag.String("url", "http://127.0.0.1:8080", "hbserved or hbfront base URL")
		profile    = flag.String("profile", "steady", "arrival profile: steady|bursty|diurnal|adversarial|hotkey")
		seed       = flag.Int64("seed", 1, "schedule seed; (profile, seed) fully determines the stream")
		n          = flag.Int("n", 200, "request count")
		duration   = flag.Duration("duration", 10*time.Second, "schedule span (offered rate = n/duration)")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request deadline")
		corpusN    = flag.Int("corpus-n", 128, "corpus size to draw programs from")
		corpusSeed = flag.Int64("corpus-seed", 1, "corpus generator seed")
		timeScale  = flag.Float64("time-scale", 1.0, "multiply arrival offsets at replay time (0.1 replays a 10s schedule in 1s)")
		stream     = flag.String("stream", "", "write the arrival schedule to this file as NDJSON")
		dryRun     = flag.Bool("dry-run", false, "build and write the schedule, send no traffic")
		reportOut  = flag.String("report", "-", "write the JSON report here (-: stdout)")
		slo        = flag.Bool("slo", false, "enforce the goodput SLO (exit 1 on violation)")
		floor      = flag.Float64("goodput-floor", 0.10, "minimum goodput/offered ratio (with -slo)")
		grace      = flag.Duration("grace", 500*time.Millisecond, "deadline-miss tolerance for admitted requests")
		maxP50     = flag.Duration("max-p50", 0, "bound on goodput median latency (0: unbounded; with -slo)")
		minShed    = flag.Int("min-shed-jitter", 8, "assert jittered Retry-After once this many sheds occurred (0: off; with -slo)")
		minReuse   = flag.Float64("min-reuse-rate", -1, "minimum share of compiles that skipped the greedy search by a program hit or a skeleton replay ((program_hits+skeleton_hits)/compiles; < 0: off; exit 1 below)")
		verbose    = flag.Bool("v", false, "progress to stderr")
	)
	flag.Parse()

	p := load.Profile(*profile)
	if !p.Valid() {
		fatalf("unknown profile %q (have %v)", *profile, load.Profiles())
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hbload: "+format+"\n", args...)
		}
	}

	logf("building corpus (seed %d, n %d)", *corpusSeed, *corpusN)
	crp, err := corpus.Build(corpus.Config{Seed: *corpusSeed, N: *corpusN})
	if err != nil {
		fatalf("corpus: %v", err)
	}
	arrivals, err := load.Schedule(load.ScheduleConfig{
		Profile:  p,
		Seed:     *seed,
		Requests: *n,
		Duration: *duration,
		Timeout:  *timeout,
		Corpus:   crp,
	})
	if err != nil {
		fatalf("schedule: %v", err)
	}
	if *stream != "" {
		f, err := os.Create(*stream)
		if err != nil {
			fatalf("stream: %v", err)
		}
		if err := load.WriteStream(f, arrivals); err != nil {
			fatalf("stream: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("stream: %v", err)
		}
		logf("wrote %d arrivals to %s", len(arrivals), *stream)
	}
	if *dryRun {
		logf("dry run: no traffic sent")
		return
	}

	logf("replaying %s/%d: %d requests over %s at %s (time-scale %g)",
		p, *seed, len(arrivals), *duration, *url, *timeScale)
	outcomes, elapsed, err := load.Run(context.Background(), load.RunConfig{
		BaseURL:   *url,
		Arrivals:  arrivals,
		Resolve:   load.Requests(crp),
		TimeScale: *timeScale,
		Logf:      logf,
	})
	if err != nil {
		fatalf("run: %v", err)
	}
	rep := load.BuildReport(p, *seed, *url, outcomes, elapsed, *grace)

	failed := false
	if *slo {
		v := rep.CheckSLO(load.SLO{
			GoodputFloor:     *floor,
			Grace:            *grace,
			MaxP50:           *maxP50,
			MinShedForJitter: *minShed,
		})
		for _, s := range v {
			fmt.Fprintf(os.Stderr, "hbload: SLO VIOLATION: %s\n", s)
		}
		failed = failed || len(v) > 0
	}
	if *minReuse >= 0 {
		// The compile-reuse gate: of the responses that missed the
		// result cache, at least this share must have skipped the full
		// greedy search, served by the program tier or by skeleton
		// replay.
		if rep.Compiles == 0 {
			fmt.Fprintf(os.Stderr, "hbload: REUSE GATE: no successful compiles to measure\n")
			failed = true
		} else if rep.ReuseRate < *minReuse {
			fmt.Fprintf(os.Stderr, "hbload: REUSE GATE: reuse rate %.3f (%d program + %d skeleton hits of %d compiles) below floor %.3f\n",
				rep.ReuseRate, rep.ProgramHits, rep.SkeletonHits, rep.Compiles, *minReuse)
			failed = true
		}
	}

	if *reportOut == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatalf("report: %v", err)
		}
	} else if err := writeJSON(*reportOut, rep); err != nil {
		fatalf("report: %v", err)
	}

	logf("done: goodput %d/%d (%.3f), %d shed, %d lost, %d deadline misses, reuse %d program + %d skeleton of %d compiles (%.3f)",
		rep.Goodput, rep.Offered, rep.GoodputRatio, rep.ShedRetry.Count, rep.Lost, rep.DeadlineMisses,
		rep.ProgramHits, rep.SkeletonHits, rep.Compiles, rep.ReuseRate)
	if failed {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hbload: "+format+"\n", args...)
	os.Exit(2)
}
