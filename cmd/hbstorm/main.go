// Command hbstorm is the cluster chaos driver: it boots an in-process
// N-shard compile farm (real hbserved servers, a real hbfront router,
// loopback wire), runs seeded traffic while deterministic netchaos
// schedules maul the cluster — dropped and hung connections,
// asymmetric partitions, 5xx bursts, corrupted artifact payloads,
// failing disks — and asserts the serving invariants: every request
// one terminal classed response, no hash-invalid artifact ever
// served, full reconvergence once faults clear (a final pass over
// every key all cache hits). With -kill it instead kills a shard
// outright after the warm phase and requires zero lost responses
// from the survivors. With -churn it kills a shard mid-burst and
// restarts it with an empty store at the same address, requiring zero
// lost responses and a final pass of cache hits, which the restarted
// shard serves by reading through its peers. Every shard and the
// front route over static lists of the farm's addresses; each shard
// writes every artifact it stores back to the key's top-ranked peer.
//
// Exit status 0 means every schedule held every invariant; 1 means a
// violation (the structured report on stdout says which, and the
// seed reproduces it); 2 means the harness itself failed.
//
// -profile shapes the storm traffic with one of internal/load's
// seeded arrival schedules (bursty, diurnal, ...) instead of the
// uniform blast, so overload control and fault tolerance are
// exercised together; the profile shares the netchaos seed.
//
//	hbstorm -seeds 1,2,3,4            # four schedules, 3-shard farm
//	hbstorm -kill                     # shard-kill scenario
//	hbstorm -churn -seeds 1,2,3,4     # kill + restart mid-burst, per seed
//	hbstorm -seeds 1 -profile bursty  # bursty traffic under faults
//	hbstorm -seeds 7 -shards 5 -requests 200 -v
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos/netchaos"
	"repro/internal/load"
	"repro/internal/storm"
)

func main() {
	var (
		shards   = flag.Int("shards", 3, "in-process farm size")
		seeds    = flag.String("seeds", "1", "comma-separated netchaos seeds; each runs one full storm")
		keys     = flag.Int("keys", 6, "distinct job keys in the traffic mix")
		requests = flag.Int("requests", 48, "requests during each fault window")
		workers  = flag.Int("workers", 8, "concurrent storm clients")
		kill     = flag.Bool("kill", false, "kill shard 0 after the warm phase instead of arming a fault schedule (zero-loss required)")
		churn    = flag.Bool("churn", false, "kill a shard mid-burst and restart it empty at its address (zero-loss and a final pass of cache hits required)")
		profile  = flag.String("profile", "", "shape storm traffic with this load profile (steady|bursty|diurnal|adversarial|hotkey; empty: uniform blast)")
		span     = flag.Duration("span", 2*time.Second, "wall clock the profile schedule is compressed into (with -profile)")
		timeout  = flag.Duration("timeout", 8*time.Second, "per-request deadline")
		budget   = flag.Duration("budget", 10*time.Minute, "wall-clock budget for the whole run")
		verbose  = flag.Bool("v", false, "progress to stderr")
	)
	flag.Parse()
	if *profile != "" && !load.Profile(*profile).Valid() {
		fmt.Fprintf(os.Stderr, "hbstorm: unknown profile %q (have %v)\n", *profile, load.Profiles())
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *budget)
	defer cancel()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "hbstorm: "+format+"\n", args...)
		}
	}

	var seedList []int64
	for _, s := range strings.Split(*seeds, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbstorm: bad seed %q: %v\n", s, err)
			os.Exit(2)
		}
		seedList = append(seedList, n)
	}
	if *kill && *churn {
		fmt.Fprintln(os.Stderr, "hbstorm: -kill and -churn are mutually exclusive")
		os.Exit(2)
	}
	if *kill && len(seedList) == 0 {
		seedList = []int64{0}
	}

	var reports []*storm.Report
	failed := false
	for _, seed := range seedList {
		cfg := storm.Config{
			Shards:         *shards,
			Keys:           *keys,
			Requests:       *requests,
			Workers:        *workers,
			Kill:           *kill,
			Churn:          *churn,
			Profile:        load.Profile(*profile),
			ProfileSpan:    *span,
			RequestTimeout: *timeout,
			Logf:           logf,
		}
		switch {
		case *churn:
			// Mild latency-only schedule: seeds vary the interleaving
			// without being able to fail a request outright, so the
			// zero-loss bar measures churn handling alone.
			cfg.Plan = netchaos.Plan{Seed: seed, LatencyRate: 160, MaxLatencyMS: 20}
		case *kill:
			cfg.Plan.Seed = seed
		default:
			cfg.Plan = netchaos.DefaultPlan(seed)
		}
		logf("seed %d: %s", seed, cfg.Plan.Name())
		rep, err := storm.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbstorm: seed %d: harness failure: %v\n", seed, err)
			os.Exit(2)
		}
		reports = append(reports, rep)
		if !rep.Passed() {
			failed = true
			for _, v := range rep.Violations {
				fmt.Fprintf(os.Stderr, "hbstorm: seed %d: VIOLATION [%s] %s\n", seed, v.Invariant, v.Detail)
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		fmt.Fprintf(os.Stderr, "hbstorm: encode report: %v\n", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
