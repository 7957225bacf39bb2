// Command hbfront runs the cluster front tier (internal/front): a
// router that rendezvous-hashes each request's content-addressed
// cache key onto a fleet of hbserved shards, coalesces identical
// concurrent requests cluster-wide, and hedges slow shards onto
// their second-choice replica.
//
//	hbfront -shards URL,URL,... [-addr 127.0.0.1:8090] [-addr-file FILE]
//	        [-cluster-seeds URL,URL,...]
//	        [-hedge-after 50ms] [-hedge-max 2s]
//	        [-timeout 10s] [-max-timeout 60s] [-drain 10s]
//	        [-netchaos-seed 0] [-version]
//
// With -cluster-seeds the front runs an observer-mode failure
// detector (internal/cluster): it probes the ring like a member but
// never announces itself, and re-derives its routing set from each
// membership view — only serving members are ranked, so confirmed-dead
// shards drop out, and suspected shards are deprioritized behind
// healthy ones. The seeds double as the initial shard set when
// -shards is omitted.
//
// Endpoints:
//
//	POST /v1/jobs — same request/response schema as hbserved
//	GET  /healthz — liveness
//	GET  /readyz  — admission readiness (503 while draining)
//	GET  /statusz — hit rate, hedge rate, coalesce count, per-shard health
//
// On SIGTERM/SIGINT the front drains: new requests shed, every
// admitted request receives exactly one terminal response, then the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/chaos/netchaos"
	"repro/internal/cluster"
	"repro/internal/front"
	"repro/internal/perf"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	shards := flag.String("shards", "", "comma-separated hbserved shard base URLs (required unless -cluster-seeds is set)")
	clusterSeeds := flag.String("cluster-seeds", "", "comma-separated ring member URLs to observe for membership-driven routing")
	hedgeAfter := flag.Duration("hedge-after", 50*time.Millisecond, "hedge budget floor (and cold-start value)")
	hedgeMax := flag.Duration("hedge-max", 2*time.Second, "hedge budget cap")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-supplied deadlines")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget")
	netchaosSeed := flag.Int64("netchaos-seed", 0, "arm a deterministic network fault schedule on shard requests (0 = off; test/chaos use only)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hbfront")
		return
	}

	split := func(s string) []string {
		var out []string
		for _, u := range strings.Split(s, ",") {
			if u = strings.TrimSpace(u); u != "" {
				out = append(out, u)
			}
		}
		return out
	}
	urls := split(*shards)
	seeds := split(*clusterSeeds)
	if len(urls) == 0 {
		// The seeds are the initial routing set until the first
		// converged view replaces it.
		urls = seeds
	}
	var client *http.Client
	if *netchaosSeed != 0 {
		injector := netchaos.New(netchaos.DefaultPlan(*netchaosSeed), "hbfront")
		injector.Arm()
		client = &http.Client{Transport: injector.Transport(nil)}
		fmt.Fprintf(os.Stderr, "hbfront: netchaos armed, plan %s\n", injector.Plan().Name())
	}
	f, err := front.New(front.Config{
		Shards:         urls,
		HedgeAfter:     *hedgeAfter,
		HedgeMax:       *hedgeMax,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Client:         client,
	})
	fail(err)

	var obs *cluster.Node
	var unwatch func()
	if len(seeds) > 0 {
		obs, err = cluster.New(cluster.Config{
			Seeds:    seeds,
			Observer: true,
			Client:   client,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hbfront: "+format+"\n", args...)
			},
		})
		fail(err)
		unwatch = f.WatchMembership(obs)
		obs.Start()
		fmt.Fprintf(os.Stderr, "hbfront: observing membership via %d seeds\n", len(seeds))
	}

	ln, err := net.Listen("tcp", *addr)
	fail(err)
	bound := ln.Addr().String()
	if *addrFile != "" {
		fail(os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644))
	}
	fmt.Fprintf(os.Stderr, "hbfront: listening on %s, routing %d shards (hedge %s..%s @p95)\n",
		bound, len(urls), *hedgeAfter, *hedgeMax)

	hs := &http.Server{Handler: f.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fail(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "hbfront: received %s, draining (budget %s)\n", sig, *drain)
		go func() {
			sig2 := <-sigc
			fmt.Fprintf(os.Stderr, "hbfront: received second %s, aborting drain\n", sig2)
			os.Exit(perf.ShutdownExitCode(sig2))
		}()
		done := make(chan struct{})
		go func() { _ = f.Drain(); close(done) }()
		select {
		case <-done:
		case <-time.After(*drain):
			fmt.Fprintln(os.Stderr, "hbfront: drain budget exceeded, exiting anyway")
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(sctx)
		cancel()
		if obs != nil {
			obs.Stop()
			unwatch()
		}
		st := f.StatusSnapshot()
		fmt.Fprintf(os.Stderr, "hbfront: drained after %.1fs (%d requests, %d coalesced, %d hedges, hit rate %.0f%%)\n",
			st.UptimeSeconds, st.Requests, st.Coalesced, st.Hedges, 100*st.HitRate)
		os.Exit(0)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbfront:", err)
		os.Exit(1)
	}
}
