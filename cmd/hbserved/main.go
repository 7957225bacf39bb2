// Command hbserved runs the resilient compile-and-simulate service
// (internal/server) as an HTTP daemon:
//
//	hbserved [-addr 127.0.0.1:8080] [-addr-file FILE]
//	         [-workers 0] [-queue 64]
//	         [-timeout 10s] [-max-timeout 60s] [-retry-jitter-seed 0]
//	         [-drain 10s] [-cache-dir DIR] [-scrub]
//	         [-shard-id ID] [-peers URL,URL,...]
//	         [-replicas 1] [-antientropy-interval 0]
//	         [-cluster] [-cluster-join URL,URL,...] [-advertise URL]
//	         [-cluster-interval 1s] [-join-warmup 0]
//	         [-trace FILE] [-trace-stream FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//	         [-chaos-seed 0] [-netchaos-seed 0]
//	         [-version]
//
// Endpoints:
//
//	POST /v1/jobs        — compile/simulate a named workload or inline tl
//	GET  /healthz        — liveness
//	GET  /readyz         — admission readiness (503 while draining)
//	GET  /statusz        — queue, shed, cache, store, and taxonomy counters
//	GET/PUT /artifact/K  — peer-addressable content-addressed artifact store
//
// Cluster mode: -peers lists sibling shards' base URLs — on a local
// cache miss the shard fetches the artifact from the rendezvous-ranked
// peers before compiling (and verifies the content hash before
// trusting it). -shard-id tags responses (X-Hbserved-Shard) and
// /statusz so hbfront's routing decisions are auditable. See
// DESIGN.md's "Cluster architecture" section.
//
// Dynamic membership: -cluster joins the SWIM-style gossip ring
// (internal/cluster) and re-derives the peer topology from the live
// membership view instead of the static -peers list. The first node
// runs plain -cluster (a seed); later nodes add -cluster-join with
// any live member's URL, and -join-warmup makes them announce as
// "joining" — warmed by the existing Sweepers before owning replicas.
// -advertise overrides the self URL gossiped to peers (defaults to
// http://<bound address>). The gossip wire mounts under /cluster/ and
// the detector's view appears in /statusz. See DESIGN.md's
// "Membership and failure detection" section.
//
// Every response carries a structured error class (ok, invalid-input,
// degraded, quarantined, timeout, shed, internal); see DESIGN.md's
// "Serving architecture" section for the full taxonomy, the queue
// rules, and the drain sequence.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops
// admitting (readyz goes 503, new submits are shed), lets in-flight
// requests finish within -drain, hard-cancels stragglers through
// their contexts, flushes the trace and profiles, and exits 0. A
// second signal aborts immediately with the conventional 128+signum
// status after flushing what it can.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/chaos"
	"repro/internal/chaos/netchaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", 0, "concurrent jobs (0: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline (a request queued for over half its deadline is shed)")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-supplied deadlines")
	retryJitterSeed := flag.Uint64("retry-jitter-seed", 0, "seed for shed Retry-After jitter (0: unseeded; set for replayable tests)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget for in-flight requests")
	cacheDir := flag.String("cache-dir", "", "persist the result cache to this directory")
	shardID := flag.String("shard-id", "", "shard identity tag for responses and /statusz")
	peers := flag.String("peers", "", "comma-separated sibling shard base URLs to fetch artifacts from")
	replicas := flag.Int("replicas", 1, "artifact replication factor across peers (writes fan out to the top R, deep read hits repair earlier replicas)")
	scrub := flag.Bool("scrub", false, "verify every on-disk artifact at startup, quarantining corrupt entries (needs -cache-dir)")
	antiEntropy := flag.Duration("antientropy-interval", 0, "background replication-repair sweep interval (0: off; needs -peers or -cluster)")
	clusterOn := flag.Bool("cluster", false, "join the gossip membership ring and derive peer topology from the live view")
	clusterJoin := flag.String("cluster-join", "", "comma-separated member URLs to join the ring through (implies -cluster)")
	advertise := flag.String("advertise", "", "self URL gossiped to the ring (default http://<bound address>)")
	clusterInterval := flag.Duration("cluster-interval", time.Second, "gossip probe interval")
	joinWarmup := flag.Duration("join-warmup", 0, "announce as joining and self-promote to alive after this warmup (0: join alive immediately)")
	traceOut := flag.String("trace", "", "write a JSON execution trace to this file on exit")
	traceStream := flag.String("trace-stream", "", "stream per-job trace events to this file as NDJSON")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	chaosSeed := flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0: off; testing only)")
	netchaosSeed := flag.Int64("netchaos-seed", 0, "arm deterministic network/disk fault injection with this seed (0: off; testing only)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "hbserved")
		return
	}

	stopProf, err := perf.StartProfiles(*cpuprofile, *memprofile)
	fail(err)

	// The artifact topology: a local tier (disk if -cache-dir, memory
	// otherwise) is always the tier the /artifact/ handler serves —
	// never the tiered chain, or two peers would bounce a miss back
	// and forth. The peer tier stacks behind it read-through/
	// write-back.
	var local store.Store
	if *cacheDir != "" {
		disk, derr := store.NewDisk(*cacheDir, engine.KeySchema)
		fail(derr)
		if *scrub {
			rep, serr := disk.Scrub()
			fail(serr)
			fmt.Fprintf(os.Stderr, "hbserved: scrub: %d entries scanned, %d quarantined, %d other-schema skipped, %d orphaned temp files swept\n",
				rep.Scanned, rep.Quarantined, rep.SchemaSkipped, rep.TmpSwept)
		}
		local = disk
	} else {
		local = store.NewMem()
	}

	// Netchaos (like -chaos-seed): testing only. The injector sits on
	// the outbound peer transport and the local store tier; the
	// /artifact/ handler keeps serving the raw local store so peers
	// always read verified bytes.
	var injector *netchaos.Injector
	peerClient := (*http.Client)(nil)
	localTier := local
	if *netchaosSeed != 0 {
		p := netchaos.DefaultPlan(*netchaosSeed)
		from := *shardID
		if from == "" {
			from = "hbserved"
		}
		injector = netchaos.New(p, from)
		injector.Arm()
		peerClient = &http.Client{Transport: injector.Transport(nil)}
		localTier = injector.Store(local)
		fmt.Fprintf(os.Stderr, "hbserved: netchaos armed: %s\n", p.Name())
	}

	// Listen before the cluster node exists: gossip advertises the
	// bound address, so the socket must be bound first.
	ln, err := net.Listen("tcp", *addr)
	fail(err)
	bound := ln.Addr().String()
	if *addrFile != "" {
		fail(os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644))
	}

	inCluster := *clusterOn || *clusterJoin != ""
	var node *cluster.Node
	if inCluster {
		self := *advertise
		if self == "" {
			self = "http://" + bound
		}
		node, err = cluster.New(cluster.Config{
			Self:          self,
			Seeds:         splitURLs(*clusterJoin),
			ProbeInterval: *clusterInterval,
			JoinWarmup:    *joinWarmup,
			Client:        peerClient,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "hbserved: "+format+"\n", args...)
			},
		})
		fail(err)
	}

	var peerTier *store.Peer
	var backing store.Store = local
	if urls := splitURLs(*peers); len(urls) > 0 || inCluster {
		// In cluster mode the static list (possibly empty) is only the
		// pre-convergence fallback; the live membership view replaces
		// it as soon as gossip produces one.
		peerTier = store.NewPeerWith("peers", engine.KeySchema, urls, peerClient, store.PeerOpts{
			Replicas:   *replicas,
			OpTimeout:  *timeout / 2,
			ReadRepair: *replicas > 1,
		})
		backing = store.NewTiered(localTier, peerTier)
	}

	// Anti-entropy: the sweeper enumerates the raw local store and
	// pushes under-replicated keys onto the top-R peers.
	var sweeper *store.Sweeper
	if *antiEntropy > 0 && peerTier != nil {
		lister, ok := local.(store.Lister)
		if !ok {
			fail(fmt.Errorf("local store cannot enumerate keys for anti-entropy"))
		}
		sweeper = store.NewSweeper(lister, local, peerTier)
		sweeper.Start(*antiEntropy)
		fmt.Fprintf(os.Stderr, "hbserved: anti-entropy sweeping every %s at replication factor %d\n", *antiEntropy, *replicas)
	}

	// Every ring consumer re-derives its target set from each new
	// membership view: the peer tier walks serving members and fans
	// writes to owners; the sweeper pushes at placement targets
	// (joining members included — that is how they get warmed) and
	// skips confirmed-dead ranks.
	var unwatch func()
	if node != nil {
		self := node.Self()
		sw := sweeper
		pt := peerTier
		unwatch = node.OnChange(func(v cluster.View) {
			pt.SetMembership(cluster.Exclude(v.Serving(), self), cluster.Exclude(v.Owners(), self))
			if sw != nil {
				sw.SetView(func() store.SweepView {
					return store.SweepView{Targets: cluster.Exclude(v.Placement(), self), Dead: v.Dead()}
				})
			}
		})
	}
	cache := engine.NewStoreCache(backing)
	tracer := engine.NewTracer()
	var streamFile *os.File
	if *traceStream != "" {
		streamFile, err = os.Create(*traceStream)
		fail(err)
		tracer = engine.NewStreamTracer(streamFile)
	}
	var plan *chaos.Plan
	if *chaosSeed != 0 {
		p := chaos.Plans(*chaosSeed, 1)[0]
		plan = &p
		fmt.Fprintf(os.Stderr, "hbserved: chaos armed: %s\n", p.Name())
	}
	eng := engine.New(engine.Config{
		Workers: *workers,
		Cache:   cache,
		Tracer:  tracer,
		Chaos:   plan,
	})
	srv, err := server.New(server.Config{
		Engine:          eng,
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		RetryJitterSeed: *retryJitterSeed,
		DrainBudget:     *drain,
		ShardID:         *shardID,
		ArtifactStore:   local,
		Sweeper:         sweeper,
		Cluster:         node,
		InjectedFaults:  faultStats(injector),
	})
	fail(err)

	fmt.Fprintf(os.Stderr, "hbserved: listening on %s (%d workers, queue %d, timeout %s, drain %s)\n",
		bound, effectiveWorkers(*workers), *queue, *timeout, *drain)
	if *shardID != "" || *peers != "" {
		fmt.Fprintf(os.Stderr, "hbserved: cluster mode: shard=%q peers=%q key-schema=%d\n",
			*shardID, *peers, engine.KeySchema)
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if node != nil {
		// Start gossip only once the wire protocol is being served, so
		// the first members we probe can probe us back.
		node.Start()
		fmt.Fprintf(os.Stderr, "hbserved: membership: self=%s join=%q probe every %s\n",
			node.Self(), *clusterJoin, *clusterInterval)
	}

	// flush writes the trace and finishes the profiles; it runs
	// exactly once, on whichever exit path fires first.
	flushed := false
	flush := func() {
		if flushed {
			return
		}
		flushed = true
		if *traceOut != "" {
			if f, err := os.Create(*traceOut); err == nil {
				_ = tracer.WriteJSON(f)
				_ = f.Close()
			} else {
				fmt.Fprintln(os.Stderr, "hbserved:", err)
			}
		}
		if streamFile != nil {
			_ = streamFile.Sync()
			_ = streamFile.Close()
		}
		stopProf()
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		// The listener died out from under us; nothing to drain.
		flush()
		fail(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "hbserved: received %s, draining (budget %s)\n", sig, *drain)
		// A second signal during drain aborts immediately, but still
		// flushes: an operator mashing ^C gets their trace.
		go func() {
			sig2 := <-sigc
			fmt.Fprintf(os.Stderr, "hbserved: received second %s, aborting drain\n", sig2)
			flush()
			os.Exit(perf.ShutdownExitCode(sig2))
		}()
		drainErr := srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(sctx)
		cancel()
		if node != nil {
			// Leave the ring before the sweeper stops: no further view
			// changes arrive once the watcher is gone.
			node.Stop()
			unwatch()
		}
		if sweeper != nil {
			sweeper.Stop()
		}
		// Drained: no request can reach the cache anymore, so the
		// store chain (write-back worker included) can close.
		if cerr := cache.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "hbserved: store close:", cerr)
		}
		flush()
		if drainErr != nil {
			fmt.Fprintln(os.Stderr, "hbserved:", drainErr)
			os.Exit(1)
		}
		st := srv.StatusSnapshot()
		var answered int64
		for _, n := range st.Classes {
			answered += n
		}
		fmt.Fprintf(os.Stderr, "hbserved: drained cleanly after %s (%d responses, cache %d/%d hits)\n",
			time.Duration(st.UptimeMS)*time.Millisecond, answered, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses)
		os.Exit(0)
	}
}

// faultStats adapts an optional injector to the server's /statusz
// poll hook.
func faultStats(in *netchaos.Injector) func() any {
	if in == nil {
		return nil
	}
	return func() any { return in.Stats() }
}

// splitURLs parses a comma-separated URL list, dropping empties.
func splitURLs(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, u)
		}
	}
	return out
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbserved:", err)
		os.Exit(1)
	}
}
