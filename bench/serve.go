package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/front"
	"repro/internal/load"
	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

// The serving workloads' fixed inputs. The corpus is the same for
// every seed; the seed drives the order and the arrival stream.
const (
	corpusSeed = 1
	corpusSize = 512
	// coldTimeout is serve-cold's deadline: the corpus's slowest
	// programs take seconds to form, and none may time out.
	coldTimeout = 30 * time.Second
	// hotTimeout is serve-hot's deadline, hotRate its open-loop rate
	// and hotWarmup the arrivals sent before measuring.
	hotTimeout = 2 * time.Second
	hotRate    = 50
	hotWarmup  = 100
	// hotArgRange bounds the hot-key profile's argument draws.
	hotArgRange = 8
	// capacityRate sizes serve-hot's closed-loop capacity phase: it
	// sends capacityRate requests per second of its time share, about
	// what the two-shard cluster serves on two cores.
	capacityRate = 2000
	// smokeCorpus is how many corpus programs serve-cold sends in
	// smoke mode.
	smokeCorpus = 16
)

// coldArgs are serve-cold's arguments for every program.
var coldArgs = []int64{3, 5}

// targetStop bounds a target's graceful drain before it is killed.
const targetStop = 30 * time.Second

func buildCorpus() (*corpus.Corpus, error) {
	return corpus.Build(corpus.Config{Seed: corpusSeed, N: corpusSize})
}

func corpusID(idx int) string { return "corpus/" + strconv.Itoa(idx) }

// hotPrograms returns serve-hot's four programs, most frequent first:
// the ones the hot-key profile draws at seed 1. Every seed replays
// them, so the seed changes the stream but not its cost.
func hotPrograms(c *corpus.Corpus) []int {
	arr, err := load.Schedule(load.ScheduleConfig{Profile: load.HotKey, Seed: 1, Requests: 1000, Corpus: c})
	if err != nil {
		return nil
	}
	return byFrequency(arr)
}

// byFrequency returns the distinct program indices of a stream, most
// frequent first (ties by index).
func byFrequency(arr []load.Arrival) []int {
	count := map[int]int{}
	for _, a := range arr {
		count[a.ProgramIdx]++
	}
	idx := make([]int, 0, len(count))
	for i := range count {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if count[idx[a]] != count[idx[b]] {
			return count[idx[a]] > count[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// hotStream builds serve-hot's arrivals for a seed: the hot-key
// profile's schedule at hotRate, with each of the seed's hot programs
// replaced by the hot program of the same frequency rank.
func hotStream(c *corpus.Corpus, seed int64, n int) ([]load.Arrival, error) {
	arr, err := load.Schedule(load.ScheduleConfig{
		Profile:  load.HotKey,
		Seed:     seed,
		Requests: n,
		Duration: time.Duration(n) * time.Second / hotRate,
		Timeout:  hotTimeout,
		Corpus:   c,
	})
	if err != nil {
		return nil, err
	}
	hot := hotPrograms(c)
	rank := map[int]int{}
	for r, idx := range byFrequency(arr) {
		rank[idx] = hot[min(r, len(hot)-1)]
	}
	for i := range arr {
		arr[i].ProgramIdx = rank[arr[i].ProgramIdx]
		arr[i].Class = c.Programs[arr[i].ProgramIdx].Cluster
	}
	return arr, nil
}

// coldOrder returns the corpus indices serve-cold sends, in the seed's
// order.
func coldOrder(seed int64, smoke bool) []int {
	n := corpusSize
	if smoke {
		n = smokeCorpus
	}
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// target is one hbserved or hbfront child process.
type target struct {
	name     string
	url      string
	cmd      *exec.Cmd
	addrFile string
	errPath  string
	exited   chan struct{} // closed once the process has been reaped
	stopping atomic.Bool
}

// startTarget launches bin with args plus -addr-file, logging stderr
// to a file in dir. env, when not nil, replaces the environment.
func startTarget(bin, dir, name string, env []string, args ...string) (*target, error) {
	t := &target{
		name:     name,
		addrFile: filepath.Join(dir, name+".addr"),
		errPath:  filepath.Join(dir, name+".log"),
		exited:   make(chan struct{}),
	}
	// An earlier repetition's address file would name a dead port.
	if err := os.Remove(t.addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logf, err := os.Create(t.errPath)
	if err != nil {
		return nil, err
	}
	t.cmd = exec.Command(bin, append(args, "-addr-file", t.addrFile)...)
	t.cmd.Env = env
	t.cmd.Stderr = logf
	t.cmd.SysProcAttr = orphanSignal
	if err := t.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = t.cmd.Wait() // the exit status is read from ProcessState
		logf.Close()
		close(t.exited)
	}()
	return t, nil
}

// waitReady waits for the target's address file and a 200 from
// /healthz.
func (t *target) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-t.exited:
			return fmt.Errorf("%s exited during start-up: %s", t.name, t.crashLine())
		default:
		}
		if t.url == "" {
			if raw, err := os.ReadFile(t.addrFile); err == nil && strings.HasSuffix(string(raw), "\n") {
				t.url = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if t.url != "" {
			if resp, err := http.Get(t.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready after %s (%s)", t.name, limit, t.crashLine())
}

// crashed reports whether the target died before it was asked to stop.
func (t *target) crashed() bool {
	select {
	case <-t.exited:
		return !t.stopping.Load()
	default:
		return false
	}
}

// crashLine returns the first panic or fatal-error line of the
// target's log, or its last line when there is none.
func (t *target) crashLine() string {
	f, err := os.Open(t.errPath)
	if err != nil {
		return "no log"
	}
	defer f.Close()
	last := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:") {
			return t.name + ": " + line
		}
		if line != "" {
			last = line
		}
	}
	return t.name + ": " + last
}

// stop sends SIGTERM, waits for the drain (killing the target after
// targetStop) and returns its CPU time and peak RSS from wait4.
func (t *target) stop() (cpuS, rssMB float64) {
	t.stopping.Store(true)
	select {
	case <-t.exited:
	default:
		_ = t.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal is reaped below
		select {
		case <-t.exited:
		case <-time.After(targetStop):
			_ = t.cmd.Process.Kill() // reaped below whether or not it was still running
			<-t.exited
		}
	}
	if ru, ok := t.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpuS, rssMB
}

// statusz fetches and decodes a target's /statusz document.
func (t *target) statusz(v any) error {
	resp, err := http.Get(t.url + "/statusz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// freePorts reserves n loopback ports by binding and releasing them,
// for shards that must name each other in -peers before they start.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
		defer ln.Close()
	}
	return ports, nil
}

// cluster is one serving workload's set of targets: the shards, and
// the front when there is one.
type cluster struct {
	shards []*target
	front  *target
}

// entry is the target load goes to.
func (c *cluster) entry() *target {
	if c.front != nil {
		return c.front
	}
	return c.shards[0]
}

func (c *cluster) all() []*target {
	out := append([]*target(nil), c.shards...)
	if c.front != nil {
		out = append(out, c.front)
	}
	return out
}

// startCluster launches the workload's targets and waits until all of
// them serve, returning the set-up time. serve-cold is one hbserved
// with nproc workers; serve-hot is hbfront over two single-worker
// hbserved shards that list each other as peers.
func startCluster(spec childSpec) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{}
	served := filepath.Join(spec.Bin, "hbserved")
	if spec.Workload == wCold {
		s, err := startTarget(served, spec.Work, "hbserved", nil,
			"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(nproc()))
		if err != nil {
			return nil, 0, err
		}
		c.shards = []*target{s}
	} else {
		ports, err := freePorts(2)
		if err != nil {
			return nil, 0, err
		}
		url := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
		// One scheduler thread per single-worker shard. With more, a
		// shard crashes on the known admission race (README.md) in about
		// one repetition in five, so the benchmark would measure restarts
		// rather than serving.
		env := append(os.Environ(), "GOMAXPROCS=1")
		for i := range ports {
			s, err := startTarget(served, spec.Work, fmt.Sprintf("hbserved%d", i), env,
				"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-workers", "1",
				"-shard-id", fmt.Sprintf("s%d", i), "-peers", url(1-i))
			if err != nil {
				c.stop()
				return nil, 0, err
			}
			c.shards = append(c.shards, s)
		}
		f, err := startTarget(filepath.Join(spec.Bin, "hbfront"), spec.Work, "hbfront", nil,
			"-addr", "127.0.0.1:0", "-shards", url(0)+","+url(1))
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.front = f
	}
	for _, t := range c.all() {
		if err := t.waitReady(30 * time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(start), nil
}

// stop stops the front first, so it drains before its shards do, and
// returns the targets' summed CPU time and peak RSS per binary.
func (c *cluster) stop() (shardCPU, shardRSS, frontCPU, frontRSS float64) {
	if c.front != nil {
		frontCPU, frontRSS = c.front.stop()
	}
	for _, s := range c.shards {
		cpu, rss := s.stop()
		shardCPU += cpu
		shardRSS += rss
	}
	return
}

// crashes returns the panic line of every target that died on its own.
func (c *cluster) crashes() []string {
	var out []string
	for _, t := range c.all() {
		if t.crashed() {
			out = append(out, t.crashLine())
		}
	}
	return out
}

// pollQueues samples the shards' queue length once a second until
// stop is closed. The returned function waits for the sampler to end
// and returns the maximum it saw.
func (c *cluster) pollQueues(stop <-chan struct{}) (maxLen func() int) {
	best := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			for _, s := range c.shards {
				var st server.Status
				if s.statusz(&st) == nil {
					best = max(best, st.QueueLen)
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() int {
		<-done
		return best
	}
}

// request is one prepared serving request.
type request struct {
	prog string // refs.txt program ID
	args []int64
	body []byte
	// skel is the request's skeleton key, key its distinct-work key.
	skel, key string
}

func prepare(c *corpus.Corpus, arr []load.Arrival) ([]request, error) {
	toReq := load.Requests(c)
	out := make([]request, len(arr))
	for i, a := range arr {
		req := toReq(a)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		job, _, inv := server.BuildJob(nil, req)
		if inv != nil {
			return nil, fmt.Errorf("corpus program %d: %s", a.ProgramIdx, inv.Error)
		}
		skel, err := engine.SkeletonKey(job)
		if err != nil {
			return nil, err
		}
		out[i] = request{prog: corpusID(a.ProgramIdx), args: a.Args, body: body, skel: skel,
			key: fmt.Sprintf("%d|%s|%v", a.ProgramIdx, a.Ordering, a.Args)}
	}
	return out, nil
}

// servePlan is one serving repetition's load.
type servePlan struct {
	reqs []request
	// due is serve-hot's open-loop schedule (nil: serve-cold's closed
	// loop); the first warm requests are not measured; capacity is the
	// request count of serve-hot's closed-loop capacity phase.
	due      []time.Duration
	warm     int
	capacity int
	deadline time.Duration
}

// planServe builds the repetition's requests from the corpus and seed.
func planServe(spec childSpec) (*servePlan, error) {
	corp, err := buildCorpus()
	if err != nil {
		return nil, err
	}
	p := &servePlan{deadline: coldTimeout}
	var arr []load.Arrival
	if spec.Workload == wCold {
		for _, idx := range coldOrder(spec.Seed, spec.Smoke) {
			arr = append(arr, load.Arrival{ProgramIdx: idx, Class: corp.Programs[idx].Cluster,
				Args: coldArgs, TimeoutMS: coldTimeout.Milliseconds()})
		}
	} else {
		open := int(spec.Seconds * 2 / 3 * hotRate)
		p.warm, p.capacity, p.deadline = hotWarmup, int(spec.Seconds/3*capacityRate), hotTimeout
		if spec.Smoke {
			p.warm, open, p.capacity = 10, 40, 60
		}
		if arr, err = hotStream(corp, spec.Seed, p.warm+open); err != nil {
			return nil, err
		}
		for _, a := range arr {
			p.due = append(p.due, time.Duration(a.AtUS)*time.Microsecond)
		}
	}
	p.reqs, err = prepare(corp, arr)
	return p, err
}

// repLimit bounds one repetition's load, so a wedged target costs lost
// requests rather than a benchmark that never exits.
const repLimit = 120 * time.Second

// drive sends the plan's load and returns every call with its request.
// serve-cold is one closed loop over the corpus; serve-hot is the
// open-loop stream followed by the closed-loop capacity phase over the
// same stream. wall_s and throughput_rps come from the closed loop.
func (p *servePlan) drive(url string, r *repResult) ([]call, []request) {
	ctx, cancel := context.WithTimeout(context.Background(), repLimit)
	defer cancel()
	lc := newLoadClient(url, nproc())
	defer lc.close()
	limit := p.deadline + 5*time.Second
	bodies := make([][]byte, len(p.reqs))
	for i := range p.reqs {
		bodies[i] = p.reqs[i].body
	}
	var calls []call
	reqs := p.reqs
	n := len(bodies)
	if p.due != nil {
		calls = lc.openLoop(ctx, bodies, p.due, limit)
		n = p.capacity
		for i := 0; i < n; i++ {
			reqs = append(reqs, p.reqs[i%len(p.reqs)])
		}
	}
	closed, wall := lc.closedLoop(ctx, bodies, n, limit)
	r.set("wall_s", wall.Seconds())
	r.set("throughput_rps", float64(n)/wall.Seconds())
	return append(calls, closed...), reqs
}

// serveRep runs one repetition of serve-cold or serve-hot against
// fresh targets and checks every reply.
func serveRep(spec childSpec, rec *recorder) (*repResult, error) {
	cl, setup, err := startCluster(spec)
	if err != nil {
		return nil, err
	}
	r := newRepResult()
	r.Setup = []float64{setup.Seconds()}
	if spec.SetupOnly {
		cl.stop()
		return r, nil
	}
	g, err := loadGolden()
	if err != nil {
		cl.stop()
		return nil, err
	}
	p, err := planServe(spec)
	if err != nil {
		cl.stop()
		return nil, err
	}
	var queueMax func() int
	stopPoll := make(chan struct{})
	if rec != nil {
		queueMax = cl.pollQueues(stopPoll)
	}
	calls, reqs := p.drive(cl.entry().url, r)
	close(stopPoll)
	if queueMax != nil {
		r.set("server.queue_len_max", float64(queueMax()))
	}
	es := cl.finish(r)

	// Every call counts toward attempted and failed; latency and the
	// engine layer come from the measured calls only.
	for i := range calls {
		checkCall(r, g, &calls[i], reqs[i], p.deadline)
	}
	var lat, late, connWait, overhead []float64
	keys := map[string]bool{}
	for i := p.warm; i < len(p.reqs); i++ {
		c, req := &calls[i], p.reqs[i]
		lat = append(lat, ms(c.latency()))
		late = append(late, ms(c.dispatched.Sub(c.due)))
		connWait = append(connWait, ms(c.conn.Sub(c.due)))
		keys[req.skel] = true
		if c.err != nil || c.resp.Metrics == nil {
			continue
		}
		overhead = append(overhead, ms(c.replied.Sub(c.conn))-c.resp.WallMS)
		m := c.resp.Metrics
		es.obs = append(es.obs, obs{
			WallMS: c.resp.WallMS, CompileMS: float64(m.CompileNS) / 1e6, SimMS: float64(m.SimNS) / 1e6,
			CacheHit: c.resp.CacheHit, Coalesced: c.resp.Coalesced, Retries: c.resp.Retries,
			Timing: true, Key: req.key, Form: m.Form,
		})
		if rec != nil {
			traceCall(rec, fmt.Sprintf("%s/%d/%d", spec.Workload, spec.Rep, i), c)
		}
	}
	r.latencies("latency", lat)
	r.set("load.late_p95_ms", percentile(sorted(late), 95))
	r.set("load.conn_wait_p95_ms", percentile(sorted(connWait), 95))
	r.latencies("http.overhead", overhead)
	es.skelKeys = len(keys)
	es.addTo(r)
	if rec != nil {
		r.addTrace(rec.snapshot())
	}
	return r, nil
}

// finish reads the targets' /statusz counters, stops them and records
// their crashes, CPU time and peak RSS. It returns the engine summary
// the shards' counters fill.
func (c *cluster) finish(r *repResult) engineSummary {
	var es engineSummary
	shed := 0
	for _, s := range c.shards {
		var st server.Status
		if s.statusz(&st) != nil {
			continue // a dead shard leaves its counters at zero
		}
		es.skelHits += int(st.Skeleton.Hits)
		es.greedy += int(st.Skeleton.Misses)
		if st.Store != nil {
			es.storePuts += int(st.Store.Puts)
			for _, tier := range st.Store.Tiers {
				if tier.Name == "peers" {
					es.peerHits += int(tier.Hits)
				}
			}
		}
		for _, n := range st.Shed {
			shed += int(n)
		}
	}
	var fs front.Status
	if c.front != nil {
		_ = c.front.statusz(&fs) // likewise for a dead front
	}
	r.set("server.shed", float64(shed))
	r.set("front.hedges", float64(fs.Hedges))
	r.set("front.coalesced", float64(fs.Coalesced))
	r.set("front.failovers", float64(fs.Failovers))

	r.Crashes = c.crashes()
	shardCPU, shardRSS, frontCPU, frontRSS := c.stop()
	r.set("cpu_s", shardCPU+frontCPU)
	r.set("peak_rss_mb", shardRSS+frontRSS)
	r.set("server.cpu_s", shardCPU)
	r.set("server.peak_rss_mb", shardRSS)
	r.set("front.cpu_s", frontCPU)
	r.set("target_crashes", float64(len(r.Crashes)))
	return es
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkCall accounts one request: lost, refused, late or wrong all
// count as failed, and a wrong output also fails the run.
func checkCall(r *repResult, g *golden, c *call, req request, deadline time.Duration) {
	r.Attempted++
	switch {
	case c.err != nil:
		r.fail()
		r.note("%s: lost: %v", req.prog, c.err)
	case c.resp.Class != server.ClassOK:
		r.fail()
		r.note("%s: class %s: %s", req.prog, c.resp.Class, c.resp.Error)
	case c.resp.Metrics == nil:
		r.mismatch("%s: ok reply without metrics", req.prog)
	case c.latency() > deadline:
		r.fail()
		r.note("%s: %s past its %s deadline", req.prog, c.latency()-deadline, deadline)
	default:
		if bad := g.checkRef(req.prog, req.args, c.resp.Metrics.Result, c.resp.Metrics.Output); bad != "" {
			r.mismatch("%s", bad)
		}
	}
}

// traceCall records one request's client-side phases and the engine
// split its reply reports. The reply gives only the engine's duration,
// so its span is placed at the end of the HTTP exchange.
func traceCall(rec *recorder, req string, c *call) {
	root := rec.add(req, 0, rootLayer, "request", c.due, c.done)
	rec.add(req, root, "load", "late", c.due, c.dispatched)
	rec.add(req, root, "load", "conn_wait", c.dispatched, c.conn)
	exchange := rec.add(req, root, "http", "exchange", c.conn, c.replied)
	wall := min(time.Duration(c.resp.WallMS*1e6), c.replied.Sub(c.conn))
	engStart := c.replied.Add(-wall)
	eng := rec.add(req, exchange, "engine", "job", engStart, c.replied)
	if c.resp.CacheHit {
		return
	}
	m := c.resp.Metrics
	compile := min(time.Duration(m.CompileNS), wall)
	sim := min(time.Duration(m.SimNS), wall-compile)
	rec.add(req, eng, "compile", "compile", engStart, engStart.Add(compile))
	rec.add(req, eng, "timing", "run", engStart.Add(compile), engStart.Add(compile+sim))
}
