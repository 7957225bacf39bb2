package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/sim/functional"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// cell is one compile+simulate job of the grid or the sweep.
type cell struct {
	// Label names the cell in golden/cells.txt; Prog names its program
	// in golden/refs.txt.
	Label string
	Prog  string
	Job   engine.Job
	// Group orders the cells into the engine.Run calls that execute
	// them: cmd/experiments runs each table as one call on a shared
	// engine, so later tables hit earlier tables' cache entries.
	Group int
}

// Smoke-mode subsets: small kernels that still form hyperblocks.
var (
	smokeMicro = []string{"vadd", "fft4_gmti"}
	smokeSpec  = []string{"gzip"}
)

func pick(ws []workloads.Workload, names []string) []workloads.Workload {
	var out []workloads.Workload
	for _, n := range names {
		for _, w := range ws {
			if w.Name == n {
				out = append(out, w)
			}
		}
	}
	return out
}

// gridWorkloads returns the micro kernels (Tables 1 and 2) and the
// SPEC proxies (Table 3) the grid runs.
func gridWorkloads(smoke bool) (micro, spec []workloads.Workload) {
	micro, spec = workloads.Micro(), workloads.Spec()
	if smoke {
		micro, spec = pick(micro, smokeMicro), pick(spec, smokeSpec)
	}
	return micro, spec
}

// gridCells lists the grid's jobs exactly as experiments.Table1Engine,
// Table2Engine and Table3Engine build them, in the same order.
func gridCells(smoke bool) []cell {
	micro, spec := gridWorkloads(smoke)
	var out []cell
	add := func(group int, table, prog string, j engine.Job) {
		out = append(out, cell{Label: table + "/" + j.Workload + "/" + j.Config, Prog: prog, Job: j, Group: group})
	}
	bb := compiler.Options{Ordering: compiler.OrderBB}
	for i := range micro {
		w := &micro[i]
		add(0, "t1", "micro/"+w.Name, experiments.NewJob(w, bb, engine.SimTiming))
		for _, ord := range experiments.Table1Configs {
			add(0, "t1", "micro/"+w.Name, experiments.NewJob(w, compiler.Options{Ordering: ord}, engine.SimTiming))
		}
	}
	for i := range micro {
		w := &micro[i]
		add(1, "t2", "micro/"+w.Name, experiments.NewJob(w, bb, engine.SimTiming))
		for _, h := range experiments.Table2Heuristics() {
			j := experiments.NewJob(w, compiler.Options{Ordering: h.Ordering, Policy: h.Policy()}, engine.SimTiming)
			j.Config = h.Name
			add(1, "t2", "micro/"+w.Name, j)
		}
	}
	for i := range spec {
		w := &spec[i]
		add(2, "t3", "spec/"+w.Name, experiments.NewJob(w, bb, engine.SimFunctional))
		for _, ord := range experiments.Table1Configs {
			add(2, "t3", "spec/"+w.Name, experiments.NewJob(w, compiler.Options{Ordering: ord}, engine.SimFunctional))
		}
	}
	return out
}

// sweepConfig is one timing-model configuration of the sweep:
// DefaultConfig with at most one knob changed.
type sweepConfig struct {
	Name string
	Set  func(*timing.Config)
}

var sweepConfigs = []sweepConfig{
	{"default", func(*timing.Config) {}},
	{"inflight2", func(c *timing.Config) { c.MaxInflight = 2 }},
	{"inflight4", func(c *timing.Config) { c.MaxInflight = 4 }},
	{"issue4", func(c *timing.Config) { c.IssueWidth = 4 }},
	{"issue8", func(c *timing.Config) { c.IssueWidth = 8 }},
	{"fetch4", func(c *timing.Config) { c.FetchCycles = 4 }},
	{"fetch16", func(c *timing.Config) { c.FetchCycles = 16 }},
	{"mispredict6", func(c *timing.Config) { c.MispredictPenalty = 6 }},
	{"mispredict24", func(c *timing.Config) { c.MispredictPenalty = 24 }},
	{"nocache", func(c *timing.Config) { c.CacheLines = 0 }},
	{"cache64", func(c *timing.Config) { c.CacheLines = 64 }},
	{"history2", func(c *timing.Config) { c.HistoryLen = 2 }},
}

// sweepCells lists the sweep: every micro kernel under BB and (IUPO)
// on every timing configuration. Configurations of one (kernel,
// ordering) share a skeleton key, so all but the first (IUPO) compile
// of each kernel can replay a recorded skeleton.
func sweepCells(smoke bool) []cell {
	micro := workloads.Micro()
	cfgs := sweepConfigs
	if smoke {
		micro, cfgs = pick(micro, smokeMicro[:1]), cfgs[:2]
	}
	var out []cell
	for i := range micro {
		w := &micro[i]
		for _, ord := range []compiler.Ordering{compiler.OrderBB, compiler.OrderIUPO1} {
			for _, sc := range cfgs {
				j := experiments.NewJob(w, compiler.Options{Ordering: ord}, engine.SimTiming)
				j.SimConfig = timing.DefaultConfig()
				sc.Set(&j.SimConfig)
				j.Config = string(ord) + "/" + sc.Name
				out = append(out, cell{Label: "sweep/" + w.Name + "/" + j.Config, Prog: "micro/" + w.Name, Job: j})
			}
		}
	}
	return out
}

// gridRun is the grid's rendered output.
type gridRun struct {
	text string
	err  error // joined per-cell failures
}

// runGrid regenerates Tables 1–3 and Figure 7 through eng exactly as
// cmd/experiments -all does, returning its standard output.
func runGrid(eng *engine.Engine, smoke bool) gridRun {
	micro, spec := gridWorkloads(smoke)
	var sb strings.Builder
	var errs []error
	t1, err := experiments.Table1Engine(eng, micro)
	errs = append(errs, err)
	sb.WriteString("Table 1: % cycle improvement over basic blocks, by phase ordering\n")
	sb.WriteString("(m/t/u/p = blocks merged / tail duplicated / unrolled / peeled)\n")
	sb.WriteString(t1.Format() + "\n")
	t2, err := experiments.Table2Engine(eng, micro)
	errs = append(errs, err)
	sb.WriteString("Table 2: % cycle improvement over basic blocks, by heuristic\n")
	sb.WriteString(t2.Format() + "\n")
	t3, err := experiments.Table3Engine(eng, spec)
	errs = append(errs, err)
	sb.WriteString("Table 3: % block-count improvement over basic blocks (SPEC proxies)\n")
	sb.WriteString(t3.Format() + "\n")
	sb.WriteString("Figure 7: cycle-count reduction vs block-count reduction\n")
	sb.WriteString(experiments.Figure7(t1).Format())
	var msgs []string
	for _, e := range errs {
		if e != nil {
			msgs = append(msgs, e.Error())
		}
	}
	r := gridRun{text: sb.String()}
	if len(msgs) > 0 {
		r.err = fmt.Errorf("%s", strings.Join(msgs, "; "))
	}
	return r
}

// batch is a grid or sweep repetition's set-up, what the parent times:
// the job list and a fresh engine.
type batch struct {
	spec  childSpec
	cells []cell
	eng   *engine.Engine
	tr    *engine.Tracer // nil on the traced path
}

func newBatch(spec childSpec) *batch {
	b := &batch{spec: spec}
	if spec.Workload == wGrid {
		b.cells = gridCells(spec.Smoke)
	} else {
		b.cells = sweepCells(spec.Smoke)
	}
	cfg := engine.Config{Workers: nproc()}
	if !spec.Traced {
		b.tr = engine.NewTracer()
		cfg.Tracer = b.tr
	}
	b.eng = engine.New(cfg)
	return b
}

// run runs one untraced repetition and checks every output.
func (b *batch) run(g *golden) *repResult {
	spec, cells, eng, tr := b.spec, b.cells, b.eng, b.tr
	r := newRepResult()
	start := time.Now()
	var results []engine.Result
	if spec.Workload == wGrid {
		run := runGrid(eng, spec.Smoke)
		if run.err != nil {
			r.mismatch("grid: %v", run.err)
		}
		if !spec.Smoke && run.text != g.Grid {
			r.mismatch("grid: output differs from golden/grid.txt (%s)", firstDiff(g.Grid, run.text))
		}
	} else {
		jobs := make([]engine.Job, len(cells))
		for i := range cells {
			jobs[i] = cells[i].Job
		}
		results = eng.Run(jobs)
	}
	wall := time.Since(start).Seconds()

	events := tr.Events()
	r.Attempted = len(events)
	byIdentity := map[string]cell{}
	for _, c := range cells {
		byIdentity[cellIdentity(c.Job.Workload, c.Job.Config, c.Job.Sim)] = c
	}
	for _, ev := range events {
		c, ok := byIdentity[cellIdentity(ev.Workload, ev.Config, ev.Sim)]
		switch {
		case ev.Error != "":
			r.fail()
			r.note("%s/%s: %s", ev.Workload, ev.Config, ev.Error)
		case !ok:
			r.mismatch("%s/%s: not a cell of this workload", ev.Workload, ev.Config)
		default:
			if bad := g.checkCell(c.Label, "", engine.Metrics{Cycles: ev.Cycles, Blocks: ev.Blocks}); bad != "" {
				r.mismatch("%s", bad)
			}
		}
	}
	for i, res := range results {
		if res.Err == nil {
			if bad := g.checkRef(cells[i].Prog, cells[i].Job.Args, res.Metrics.Result, res.Metrics.Output); bad != "" {
				r.mismatch("%s: %s", cells[i].Label, bad)
			}
		}
	}

	var es engineSummary
	var walls []float64
	for _, ev := range events {
		walls = append(walls, ev.WallMS)
		es.obs = append(es.obs, obs{
			WallMS: ev.WallMS, CompileMS: ev.CompileMS, SimMS: ev.SimMS,
			CacheHit: ev.CacheHit, Coalesced: ev.Coalesced, Retries: ev.Retries,
			Timing: ev.Sim == engine.SimTiming, Key: ev.Key, Form: parseMTUP(ev.MTUP),
		})
	}
	sk := eng.SkeletonStats()
	es.skelHits, es.greedy = int(sk.Hits), int(sk.Misses)
	es.skelKeys = distinctSkeletons(cells)
	es.storePuts = int(eng.Cache().Stats().Puts)
	es.addTo(r)
	r.batchE2E(wall, walls)
	r.noServingLayers()
	return r
}

// cellIdentity keys a job by its labels and simulator, which tell the
// cells of one workload apart (Table 1's and Table 2's BB cells share
// an identity, and a result).
func cellIdentity(workload, config string, sim engine.SimKind) string {
	return workload + "|" + config + "|" + string(sim)
}

// distinctSkeletons counts the skeleton keys among the cells that run
// hyperblock formation.
func distinctSkeletons(cells []cell) int {
	keys := map[string]bool{}
	for _, c := range cells {
		if c.Job.Opts.Canonical().Ordering == compiler.OrderBB {
			continue
		}
		if k, err := engine.SkeletonKey(c.Job); err == nil {
			keys[k] = true
		}
	}
	return len(keys)
}

// firstDiff locates the first differing line of two texts.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "no differing line"
}

// fnCache stands in for the engine's result and skeleton caches on the
// traced path, where each cell is a custom-body job (engine.Job.Fn)
// that the engine neither caches nor replays. It follows the engine's
// two-level lookup: a full-result hit skips the cell; otherwise a
// recorded skeleton turns formation into a replay, and a miss records
// one. Concurrent misses on one skeleton key each record, as in the
// engine.
type fnCache struct {
	mu      sync.Mutex
	results map[string]engine.Metrics
	skels   map[string]*core.ProgramTrace
}

func newFnCache() *fnCache {
	return &fnCache{results: map[string]engine.Metrics{}, skels: map[string]*core.ProgramTrace{}}
}

// tracedOutcome is what a traced cell reports besides its metrics.
type tracedOutcome struct {
	progHash string // "" on a cache hit
	instrs   int
	end      time.Time
}

// runTraced executes one cell on the traced path, recording one span
// per call into the compiler's, the formation algorithm's and the
// simulators' public functions, in compiler.compileProgram's order.
func (c *fnCache) runTraced(rec *recorder, req string, root int, j engine.Job, out *tracedOutcome) (engine.Metrics, error) {
	defer func() { out.end = time.Now() }()
	t := time.Now()
	key, err := engine.Key(j)
	if err != nil {
		return engine.Metrics{}, err
	}
	c.mu.Lock()
	m, hit := c.results[key]
	c.mu.Unlock()
	rec.add(req, root, "engine", "lookup", t, time.Now())
	if hit {
		m.Workload, m.Config, m.Sim = j.Workload, j.Config, j.Sim
		return m, nil
	}

	opts := j.Opts.Canonical()
	var skey string
	if opts.Ordering != compiler.OrderBB {
		t = time.Now()
		if skey, err = engine.SkeletonKey(j); err != nil {
			return engine.Metrics{}, err
		}
		c.mu.Lock()
		if tr, ok := c.skels[skey]; ok {
			opts.FormTrace = tr
		} else {
			opts.RecordFormTrace = true
		}
		c.mu.Unlock()
		rec.add(req, root, "engine", "skeleton_lookup", t, time.Now())
	}

	m = engine.Metrics{Workload: j.Workload, Config: j.Config, Sim: j.Sim}
	t0 := time.Now()
	res, err := tracedCompile(rec, req, root, j.Source, opts)
	m.CompileNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return m, fmt.Errorf("%s/%s: %w", j.Workload, j.Config, err)
	}
	m.Form, m.UP, m.Degraded = res.FormStats, res.UPStats, res.Degraded

	t = time.Now()
	out.progHash = hashText(ir.FormatProgram(res.Prog))
	out.instrs = countInstrs(res.Prog)
	rec.add(req, root, "bench", "check", t, time.Now())

	t1 := time.Now()
	if err := tracedSim(rec, req, root, j, res.Prog, &m); err != nil {
		return m, fmt.Errorf("%s/%s: %w", j.Workload, j.Config, err)
	}
	m.SimNS = time.Since(t1).Nanoseconds()

	t = time.Now()
	c.mu.Lock()
	if res.FormTrace != nil && skey != "" {
		c.skels[skey] = res.FormTrace
	}
	c.results[key] = m
	c.mu.Unlock()
	rec.add(req, root, "engine", "store", t, time.Now())
	return m, nil
}

// tracedCompile is compiler.CompileContext with a span around each
// phase call. VerifyEachPhase, a debugging aid no workload sets, is not
// honoured.
func tracedCompile(rec *recorder, req string, parent int, src string, opts compiler.Options) (*compiler.Result, error) {
	call := func(layer, name string, fn func()) {
		t := time.Now()
		fn()
		rec.add(req, parent, layer, name, t, time.Now())
	}
	var prog *ir.Program
	var err error
	call("lang", "frontend", func() { prog, err = lang.CompileUnrolled(src, opts.FrontUnroll) })
	if err != nil {
		return nil, err
	}
	res := &compiler.Result{Prog: prog}
	call("opt", "scalar", func() { opt.OptimizeProgram(prog) })
	call("compiler", "splitcalls", func() { compiler.SplitCallsProgram(prog) })

	skipTraining := opts.FormTrace != nil && opts.Policy == nil &&
		(opts.Ordering == compiler.OrderIUPthenO || opts.Ordering == compiler.OrderIUPO1)
	if opts.Profile != nil {
		res.Profile = opts.Profile
	} else if opts.ProfileFn != "" && !skipTraining {
		var clone *ir.Program
		call("ir", "clone", func() { clone = ir.CloneProgram(prog) })
		call("profile", "train", func() {
			res.Profile, _, err = profile.CollectContext(context.Background(), clone, opts.ProfileFn, opts.ProfileArgs...)
		})
		if err != nil {
			return nil, fmt.Errorf("compiler: profiling failed: %w", err)
		}
	}

	form := func(headDup, iterOpt bool) error {
		cfg := core.Config{
			Cons:          opts.Cons,
			Policy:        opts.Policy,
			IterOpt:       iterOpt,
			HeadDup:       headDup && !opts.CoreTweaks.NoHeadDup,
			NoChain:       opts.CoreTweaks.NoChain,
			SplitOversize: opts.CoreTweaks.SplitOversize,
		}
		var deg []core.Degradation
		var cerr error
		switch {
		case opts.FormTrace != nil:
			call("core", "replay", func() {
				res.FormStats, deg, res.Replay, cerr = core.ReplayProgram(prog, cfg, res.Profile, opts.FormTrace)
			})
		case opts.RecordFormTrace:
			call("core", "form", func() {
				res.FormStats, deg, res.FormTrace, cerr = core.FormProgramTrace(prog, cfg, res.Profile)
			})
		default:
			call("core", "form", func() { res.FormStats, deg, cerr = core.FormProgram(prog, cfg, res.Profile) })
		}
		if cerr != nil {
			return fmt.Errorf("compiler: %w", cerr)
		}
		res.Degraded = append(res.Degraded, deg...)
		return nil
	}
	up := func() error {
		var deg []core.Degradation
		call("compiler", "unrollpeel", func() { res.UPStats, deg = compiler.UnrollPeelProgram(prog, res.Profile, opts.UnrollPeel) })
		res.Degraded = append(res.Degraded, deg...)
		return nil
	}
	midOpt := func() error {
		call("opt", "mid", func() { opt.OptimizeProgram(prog) })
		return nil
	}
	var steps []func() error
	switch opts.Ordering {
	case compiler.OrderBB:
	case compiler.OrderUPIO:
		steps = []func() error{up, func() error { return form(false, false) }, midOpt}
	case compiler.OrderIUPO:
		steps = []func() error{func() error { return form(false, false) }, up, midOpt}
	case compiler.OrderIUPthenO:
		steps = []func() error{func() error { return form(true, false) }, midOpt}
	case compiler.OrderIUPO1:
		steps = []func() error{func() error { return form(true, true) }, midOpt}
	default:
		return nil, fmt.Errorf("compiler: unknown ordering %q", opts.Ordering)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}

	call("compiler", "normalize", func() { compiler.NormalizeProgram(prog) })
	call("ir", "verify", func() { err = ir.VerifyProgram(prog) })
	if err != nil {
		return nil, fmt.Errorf("compiler: produced invalid IR: %w", err)
	}
	if opts.RegAlloc {
		call("regalloc", "allocate", func() { res.Alloc, res.AllocErrs = regalloc.AllocateProgram(prog, opts.RegAllocOpts) })
		call("ir", "verify", func() { err = ir.VerifyProgram(prog) })
		if err != nil {
			return nil, fmt.Errorf("compiler: register allocation broke IR: %w", err)
		}
	}
	return res, nil
}

// tracedSim runs the job's simulator under one span and fills the
// simulator counters of m the way the engine does.
func tracedSim(rec *recorder, req string, parent int, j engine.Job, prog *ir.Program, m *engine.Metrics) error {
	t := time.Now()
	var err error
	switch j.Sim {
	case engine.SimNone:
		return nil
	case engine.SimTiming:
		cfg := j.SimConfig
		if cfg.IssueWidth == 0 {
			cfg = timing.DefaultConfig()
		}
		mach := timing.New(prog, cfg)
		m.Result, err = mach.RunContext(context.Background(), entry(j), j.Args...)
		rec.add(req, parent, "timing", "run", t, time.Now())
		s := mach.Stats
		m.Output, m.Cycles, m.Blocks, m.Executed, m.Fetched = mach.Output, s.Cycles, s.Blocks, s.Executed, s.Fetched
		m.ExitLookups, m.Mispredicts, m.Flushes = s.ExitLookups, s.Mispredicts, s.Flushes
		m.CacheAccesses, m.CacheMisses, m.Calls = s.CacheAccesses, s.CacheMisses, s.Calls
	case engine.SimFunctional:
		mach := functional.New(prog)
		m.Result, err = mach.RunContext(context.Background(), entry(j), j.Args...)
		rec.add(req, parent, "functional", "run", t, time.Now())
		s := mach.Stats
		m.Output, m.Blocks, m.Executed, m.Fetched = mach.Output, s.Blocks, s.Executed, s.Fetched
		m.Branches, m.Loads, m.Stores, m.Calls = s.Branches, s.Loads, s.Stores, s.Calls
	default:
		return fmt.Errorf("engine: unknown simulator %q", j.Sim)
	}
	return err
}

func entry(j engine.Job) string {
	if j.Entry == "" {
		return "main"
	}
	return j.Entry
}

func countInstrs(p *ir.Program) int {
	n := 0
	for _, f := range p.OrderedFuncs() {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// runTraced runs one traced repetition: every cell is an
// engine.Job.Fn over the traced path, grouped into the same engine.Run
// calls as the untraced run, and checked against the frozen program
// text and simulator counts.
func (b *batch) runTraced(g *golden, rec *recorder) *repResult {
	spec, cells, eng := b.spec, b.cells, b.eng
	fc := newFnCache()
	r := newRepResult()

	outs := make([]tracedOutcome, len(cells))
	roots := make([]int, len(cells))
	reqs := make([]string, len(cells))
	results := make([]engine.Result, len(cells))
	start := time.Now()
	for lo := 0; lo < len(cells); {
		hi := lo
		for hi < len(cells) && cells[hi].Group == cells[lo].Group {
			hi++
		}
		jobs := make([]engine.Job, 0, hi-lo)
		for i := lo; i < hi; i++ {
			j := cells[i].Job
			reqs[i] = fmt.Sprintf("%s/%d/%s", spec.Workload, spec.Rep, cells[i].Label)
			roots[i] = rec.id()
			fnJob := engine.Job{Workload: j.Workload, Config: j.Config, Sim: j.Sim}
			fnJob.Fn = func() (engine.Metrics, error) { return fc.runTraced(rec, reqs[i], roots[i], j, &outs[i]) }
			jobs = append(jobs, fnJob)
		}
		copy(results[lo:hi], eng.Run(jobs))
		lo = hi
	}
	wall := time.Since(start).Seconds()

	var walls []float64
	var cycles int64
	instrs := 0
	for i, res := range results {
		c := cells[i]
		end := outs[i].end
		rec.addID(roots[i], reqs[i], 0, rootLayer, "job", end.Add(-time.Duration(res.WallNS)), end)
		r.Attempted++
		walls = append(walls, float64(res.WallNS)/1e6)
		if res.Err != nil {
			r.fail()
			r.note("%s: %v", c.Label, res.Err)
			continue
		}
		m := res.Metrics
		if bad := g.checkCell(c.Label, outs[i].progHash, m); bad != "" {
			r.mismatch("traced %s", bad)
		}
		if bad := g.checkRef(c.Prog, c.Job.Args, m.Result, m.Output); bad != "" {
			r.mismatch("traced %s: %s", c.Label, bad)
		}
		if outs[i].progHash != "" && c.Job.Sim == engine.SimTiming {
			cycles += m.Cycles
		}
		instrs += outs[i].instrs
	}
	r.batchE2E(wall, walls)
	spans := rec.snapshot()
	r.addTrace(spans)
	for name, s := range spanTotals(spans) {
		r.set(name+"_s", s)
	}
	r.set("core.static_instrs", float64(instrs))
	if s := r.Metrics["timing.run_s"]; s > 0 {
		r.set("timing.mcycles_per_s", float64(cycles)/s/1e6)
	}
	r.noServingLayers()
	return r
}
