package timing

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/sim/functional"
)

// Stats aggregates the timing run's counters.
type Stats struct {
	// Cycles is the cycle count at the final block's commit.
	Cycles int64
	// Blocks is the number of blocks executed.
	Blocks int64
	// Executed counts executed (predicate-satisfied) instructions.
	Executed int64
	// Fetched counts instruction slots in executed blocks.
	Fetched int64
	// ExitLookups and Mispredicts summarize multi-exit block
	// prediction; Flushes counts pipeline flushes taken.
	ExitLookups int64
	Mispredicts int64
	Flushes     int64
	// CacheAccesses and CacheMisses count data-cache behaviour.
	CacheAccesses int64
	CacheMisses   int64
	// Calls counts function invocations.
	Calls int64
	// Faults tallies injected faults when an Injector is attached
	// (zero otherwise).
	Faults FaultCounts
}

// MispredictRate returns mispredicts per multi-exit lookup.
func (s Stats) MispredictRate() float64 {
	if s.ExitLookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.ExitLookups)
}

// ErrFuel reports that the run exceeded its instruction budget.
var ErrFuel = errors.New("timing: instruction budget exhausted")

// Machine is the cycle-level simulator.
//
// All per-block and per-call scratch state (issue-slot occupancy,
// activation frames, argument marshalling) is owned by the Machine
// and reused across blocks and calls, so a run is allocation-free in
// steady state: buffers grow while the run discovers its deepest call
// chain and widest block, then stabilize.
type Machine struct {
	Prog *ir.Program
	Cfg  Config
	// Mem is the data memory image; Output the print stream.
	Mem    []int64
	Output []int64
	Stats  Stats

	// Inject, when non-nil, receives the model's fault-injection
	// queries (see Injector). Faults perturb timing only; the
	// architectural results are unchanged by construction.
	Inject Injector

	pred *predictor
	// cache holds one tag per line; -1 means invalid.
	cache []int64

	// Pipeline state.
	prevFetchStart int64
	lastCommitDone int64
	nextFetchMin   int64
	inflight       []inflightBlock // recent blocks and their commit cycles

	// record turns on the watchdog trail: recs then holds the current
	// block's executed instructions for StuckReport. Only the re-run
	// Run makes after a watchdog trip records; a normal run does not.
	record bool
	recs   []instrRec

	// Issue-slot scratch: issueCnt[i] is the number of instructions
	// issued at cycle readyBase+i in the current block, valid only when
	// issueGen[i] == issueGenID. Bumping the generation per block makes
	// clearing O(1) and the dense ring replaces the per-block
	// map[int64]int the hot loop used to allocate.
	issueCnt   []int32
	issueGen   []int64
	issueGenID int64

	// frames pools one activation per call depth; argv/argt pool the
	// call-argument marshalling slices per depth (safe because call()
	// copies them into the callee frame before executing it).
	frames []*frame
	argv   [][]int64
	argt   [][]int64

	// runTimes is the Run() argument-time scratch.
	runTimes []int64

	// fnMeta caches per-function predictor inputs (name hash,
	// per-block single-exit classification). The program is immutable
	// while the machine runs, so entries never invalidate.
	fnMeta map[*ir.Function]*funcMeta

	// ctx, when non-nil, is polled between blocks so a canceled run
	// returns instead of simulating on (see RunContext).
	ctx context.Context

	steps int64
	depth int
}

// funcMeta is the per-function cache backing the predictor fast path:
// the function-name FNV hash (a predictor key component) and a lazy
// per-block classification of single- vs multi-exit blocks, so the
// O(instrs) singleExitOutcome scan runs once per static block instead
// of once per dynamic execution.
type funcMeta struct {
	hash       uint64
	singleExit []int8 // by block ID: 0 unknown, 1 multi-exit, 2 single-exit
}

func (fm *funcMeta) isSingleExit(b *ir.Block) bool {
	for b.ID >= len(fm.singleExit) {
		fm.singleExit = append(fm.singleExit, 0)
	}
	switch fm.singleExit[b.ID] {
	case 1:
		return false
	case 2:
		return true
	}
	_, single := singleExitOutcome(b)
	if single {
		fm.singleExit[b.ID] = 2
	} else {
		fm.singleExit[b.ID] = 1
	}
	return single
}

func (m *Machine) meta(f *ir.Function) *funcMeta {
	if fm, ok := m.fnMeta[f]; ok {
		return fm
	}
	if m.fnMeta == nil {
		m.fnMeta = make(map[*ir.Function]*funcMeta)
	}
	maxID := 0
	for _, b := range f.Blocks {
		if b.ID > maxID {
			maxID = b.ID
		}
	}
	fm := &funcMeta{hash: fnv1a(f.Name), singleExit: make([]int8, maxID+1)}
	m.fnMeta[f] = fm
	return fm
}

// New creates a machine over prog with the given configuration.
func New(prog *ir.Program, cfg Config) *Machine {
	if cfg.IssueWidth == 0 {
		cfg = DefaultConfig()
	}
	m := &Machine{Prog: prog, Cfg: cfg, pred: newPredictor(cfg.HistoryLen)}
	m.Mem = make([]int64, prog.MemSize)
	for addr, v := range prog.InitData {
		m.Mem[addr] = v
	}
	if cfg.CacheLines > 0 {
		m.cache = make([]int64, cfg.CacheLines)
		for i := range m.cache {
			m.cache[i] = -1
		}
	}
	return m
}

// Run simulates the named function and returns its result value.
// Stats.Cycles holds the total cycle count afterwards. On error the
// counters still reflect the partial run (cycles up to the last
// commit, faults injected so far), so a watchdog abort remains
// observable in the stats. A watchdog trip on a fresh machine fills
// the report's Stalled list from a recording re-run (see StuckReport).
func (m *Machine) Run(fn string, args ...int64) (int64, error) {
	f := m.Prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("timing: no function %q", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("timing: %s takes %d args, got %d", fn, len(f.Params), len(args))
	}
	if cap(m.runTimes) < len(args) {
		m.runTimes = make([]int64, len(args))
	}
	times := m.runTimes[:len(args)]
	clear(times)
	fresh := m.Stats.Blocks == 0
	v, _, err := m.call(f, args, times)
	m.Stats.Cycles = m.lastCommitDone
	m.Stats.ExitLookups = m.pred.Lookups
	m.Stats.Mispredicts = m.pred.Mispredicts
	if err != nil {
		var se *StuckError
		if fresh && !m.record && errors.As(err, &se) {
			se.Report.Stalled = m.stalledOnRerun(fn, args, se.Report.BlockSeq)
		}
		return 0, err
	}
	return v, nil
}

// stalledOnRerun runs fn again on a fresh machine with the same
// program, configuration, injector and context, this time recording
// the watchdog trail, and returns the Stalled list of its trip.
// Simulation and injectors are deterministic, so the re-run trips at
// the same block execution; if it does not, there is nothing to report.
func (m *Machine) stalledOnRerun(fn string, args []int64, seq int64) []StalledInstr {
	r := New(m.Prog, m.Cfg)
	r.Inject, r.ctx, r.record = m.Inject, m.ctx, true
	_, err := r.Run(fn, args...)
	var se *StuckError
	if !errors.As(err, &se) || se.Report.BlockSeq != seq {
		return nil
	}
	return se.Report.Stalled
}

// RunContext is Run with cooperative cancellation: the machine polls
// ctx between block executions and aborts with ctx's error once it is
// done, so a driver's deadline stops the simulation instead of
// abandoning it mid-flight.
func (m *Machine) RunContext(ctx context.Context, fn string, args ...int64) (int64, error) {
	m.ctx = ctx
	defer func() { m.ctx = nil }()
	return m.Run(fn, args...)
}

// inflightBlock is one entry of the speculation window.
type inflightBlock struct {
	commit    int64
	fn, block string
}

// instrRec is the watchdog's per-instruction execution record.
type instrRec struct {
	index           int
	op              ir.Op
	dst             ir.Reg
	waits           ir.Reg
	ready, complete int64
}

// frame is a function activation: register values and readiness
// times. Frames are pooled by call depth; an activation at depth d is
// dead by the time another call reaches depth d, so reuse is safe.
type frame struct {
	val  []int64
	time []int64
}

// frameAt returns the pooled frame for the given depth, sized and
// zeroed for nregs registers (matching the fresh-allocation semantics
// the simulator was written against: unwritten registers read 0).
func (m *Machine) frameAt(depth, nregs int) *frame {
	for len(m.frames) <= depth {
		m.frames = append(m.frames, &frame{})
	}
	fr := m.frames[depth]
	if cap(fr.val) < nregs {
		fr.val = make([]int64, nregs)
		fr.time = make([]int64, nregs)
	} else {
		fr.val = fr.val[:nregs]
		fr.time = fr.time[:nregs]
		clear(fr.val)
		clear(fr.time)
	}
	return fr
}

// argScratch returns the pooled argument value/time slices for the
// given depth. The contents are fully overwritten by the caller.
func (m *Machine) argScratch(depth, n int) (vals, times []int64) {
	for len(m.argv) <= depth {
		m.argv = append(m.argv, nil)
		m.argt = append(m.argt, nil)
	}
	if cap(m.argv[depth]) < n {
		m.argv[depth] = make([]int64, n)
		m.argt[depth] = make([]int64, n)
	}
	return m.argv[depth][:n], m.argt[depth][:n]
}

func (m *Machine) call(f *ir.Function, args, argTimes []int64) (int64, int64, error) {
	if m.depth >= 512 {
		return 0, 0, fmt.Errorf("timing: call depth exceeds 512")
	}
	m.depth++
	defer func() { m.depth-- }()
	m.Stats.Calls++

	fr := m.frameAt(m.depth, f.NumRegs())
	for i, p := range f.Params {
		fr.val[p] = args[i]
		fr.time[p] = argTimes[i]
	}
	fm := m.meta(f)
	b := f.Entry()
	for {
		res, err := m.execBlock(f, fm, b, fr)
		if err != nil {
			return 0, 0, err
		}
		if res.ret {
			return res.retVal, res.retTime, nil
		}
		b = res.next
	}
}

type blockResult struct {
	next    *ir.Block
	ret     bool
	retVal  int64
	retTime int64
}

func (m *Machine) execBlock(f *ir.Function, fm *funcMeta, b *ir.Block, fr *frame) (blockResult, error) {
	cfg := &m.Cfg
	var res blockResult

	// Cooperative cancellation: one cheap poll per block execution.
	if m.ctx != nil {
		select {
		case <-m.ctx.Done():
			return res, fmt.Errorf("timing: %s.%s: %w", f.Name, b.Name, m.ctx.Err())
		default:
		}
	}
	// The injector's name for this block execution, built only when
	// an injector is attached.
	seq := m.Stats.Blocks
	var site Site
	if m.Inject != nil {
		site = Site{Fn: f.Name, Block: b.Name, Seq: seq}
	}

	// Fetch/map: pipelined behind the previous block, bounded by the
	// in-flight window, and delayed by a pending misprediction flush.
	fetchStart := m.prevFetchStart + int64(cfg.FetchGap)
	if fetchStart < m.nextFetchMin {
		fetchStart = m.nextFetchMin
	}
	if n := len(m.inflight); cfg.MaxInflight > 0 && n >= cfg.MaxInflight {
		if w := m.inflight[n-cfg.MaxInflight].commit; fetchStart < w {
			fetchStart = w
		}
	}
	// Injection point: a transient fetch/map stall.
	if m.Inject != nil {
		if d := m.Inject.FetchStall(site); d > 0 {
			fetchStart += d
			m.Stats.Faults.FetchStalls++
			m.Stats.Faults.ExtraCycles += d
		}
	}
	m.prevFetchStart = fetchStart
	m.nextFetchMin = 0
	readyBase := fetchStart + int64(cfg.FetchCycles)

	m.Stats.Blocks++
	m.Stats.Fetched += int64(len(b.Instrs))
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 500_000_000
	}
	watchGap, cycleBudget := cfg.watchdogGap(), cfg.maxCycles()
	record := m.record

	// Fresh issue-slot generation: every slot of the dense ring is
	// logically zero again without touching the backing arrays.
	m.issueGenID++
	gen := m.issueGenID
	blockDone := readyBase
	exitOutcome := 0
	exitResolve := int64(0)
	exits := 0
	m.recs = m.recs[:0]

	for idx, in := range b.Instrs {
		if m.steps >= maxSteps {
			return res, ErrFuel
		}
		m.steps++
		if in.Predicated() {
			if (fr.val[in.Pred] != 0) != in.PredSense {
				continue
			}
		}
		m.Stats.Executed++

		// Dataflow readiness: operands (including the predicate).
		// waits remembers the operand that resolved last — the one the
		// instruction is "waiting on" in a StuckReport.
		ready, waits := operandsReady(in, fr.time, readyBase)
		// Issue-width contention within the block. ready >= readyBase,
		// so the slot offset is non-negative; the ring grows (amortized)
		// to the block's longest dependence chain and is then reused.
		off := ready - readyBase
		for int64(len(m.issueCnt)) <= off {
			m.issueCnt = append(m.issueCnt, 0)
			m.issueGen = append(m.issueGen, 0)
		}
		for m.issueGen[off] == gen && int(m.issueCnt[off]) >= cfg.IssueWidth {
			off++
			if int64(len(m.issueCnt)) <= off {
				m.issueCnt = append(m.issueCnt, 0)
				m.issueGen = append(m.issueGen, 0)
			}
		}
		if m.issueGen[off] != gen {
			m.issueGen[off] = gen
			m.issueCnt[off] = 1
		} else {
			m.issueCnt[off]++
		}
		issueAt := readyBase + off

		// Injection point: operand-network hop jitter on the result's
		// route to its consumers.
		routing := int64(cfg.RoutingLat)
		if m.Inject != nil {
			if d := m.Inject.HopJitter(site, idx); d > 0 {
				routing += d
				m.Stats.Faults.HopJitters++
				m.Stats.Faults.ExtraCycles += d
			}
		}

		var complete int64
		switch in.Op {
		case ir.OpMul:
			complete = issueAt + cfg.latency(latMul)
		case ir.OpDiv, ir.OpRem:
			complete = issueAt + cfg.latency(latDiv)
		default:
			complete = issueAt + cfg.latency(latSimple)
		}

		switch in.Op {
		case ir.OpLoad:
			// Speculative-load semantics: out-of-range addresses read
			// zero (a wrong-path load's value is only observable
			// through a predicated commit, which will not fire).
			addr := fr.val[in.A] + in.Imm
			var v int64
			if addr >= 0 && addr < int64(len(m.Mem)) {
				v = m.Mem[addr]
			}
			complete = issueAt + int64(cfg.LoadLat) + m.cacheAccess(addr)
			fr.val[in.Dst] = v
			fr.time[in.Dst] = complete + routing
		case ir.OpStore:
			addr := fr.val[in.A] + in.Imm
			if addr < 0 || addr >= int64(len(m.Mem)) {
				return res, fmt.Errorf("timing: %s.%s: store out of bounds %d", f.Name, b.Name, addr)
			}
			complete = issueAt + 1 + m.cacheAccess(addr)
			m.Mem[addr] = fr.val[in.B]
		case ir.OpBr:
			exits++
			exitOutcome = in.Target.ID
			exitResolve = complete
			res.next = in.Target
		case ir.OpRet:
			exits++
			exitOutcome = retOutcome
			exitResolve = complete
			res.ret = true
			if in.A.Valid() {
				res.retVal = fr.val[in.A]
				res.retTime = fr.time[in.A]
			}
		case ir.OpCall:
			if in.Callee == "print" && m.Prog.Externs["print"] {
				m.Output = append(m.Output, fr.val[in.Args[0]])
				break
			}
			callee := m.Prog.Func(in.Callee)
			if callee == nil {
				return res, fmt.Errorf("timing: unknown callee %q", in.Callee)
			}
			vals, times := m.argScratch(m.depth, len(in.Args))
			for i, a := range in.Args {
				vals[i] = fr.val[a]
				times[i] = fr.time[a]
			}
			v, t, err := m.call(callee, vals, times)
			if err != nil {
				return res, err
			}
			if t < issueAt {
				t = issueAt
			}
			complete = t + 1
			if in.Dst.Valid() {
				fr.val[in.Dst] = v
				fr.time[in.Dst] = complete + routing
			}
			// A call's subtree rebuilt the record buffer; start the
			// current block's records over (the call dominates any
			// earlier stall anyway).
			m.recs = m.recs[:0]
		case ir.OpNullW:
			// Output production only: completes when the predicate
			// allows it; the value is unchanged.
		default:
			v, ok := functional.EvalPure(in.Op, m.operand(fr, in.A), m.operand(fr, in.B), in.Imm)
			if !ok {
				return res, fmt.Errorf("timing: cannot execute %s", in.Op)
			}
			fr.val[in.Dst] = v
			fr.time[in.Dst] = complete + routing
		}
		if exits > 1 {
			return res, fmt.Errorf("timing: %s.%s fired multiple exits", f.Name, b.Name)
		}
		if complete > blockDone {
			blockDone = complete
		}
		if record {
			m.recs = append(m.recs, instrRec{
				index: idx, op: in.Op, dst: in.Def(),
				waits: waits, ready: ready, complete: complete,
			})
		}
	}
	if exits == 0 {
		return res, fmt.Errorf("timing: %s.%s produced no exit", f.Name, b.Name)
	}

	// Commit: in order, after all outputs are produced.
	prevCommit := m.lastCommitDone
	commitDone := blockDone
	if prevCommit > commitDone {
		commitDone = prevCommit
	}
	commitDone += int64(cfg.CommitOverhead)
	// Injection point: a delayed block commit.
	if m.Inject != nil {
		if d := m.Inject.CommitDelay(site); d > 0 {
			commitDone += d
			m.Stats.Faults.CommitDelays++
			m.Stats.Faults.ExtraCycles += d
		}
	}
	// Progress watchdog: a commit landing WatchdogGap cycles after its
	// predecessor, or past the cycle budget, aborts with a structured
	// report instead of letting a livelocked model spin.
	if watchGap > 0 && commitDone-prevCommit > watchGap {
		return res, m.stuck(fmt.Sprintf("no commit for %d cycles (bound %d)", commitDone-prevCommit, watchGap),
			f, b, seq, prevCommit, commitDone)
	}
	if cycleBudget > 0 && commitDone > cycleBudget {
		return res, m.stuck(fmt.Sprintf("cycle budget %d exceeded", cycleBudget),
			f, b, seq, prevCommit, commitDone)
	}
	m.lastCommitDone = commitDone
	m.inflight = append(m.inflight, inflightBlock{commit: commitDone, fn: f.Name, block: b.Name})
	// Trim the history to the window the fetch throttle (and the
	// watchdog report) can still reference. The tail is shifted down in
	// place, so after the slice's one-time growth to keep+64 entries
	// the trim allocates nothing.
	keep := cfg.MaxInflight
	if keep <= 0 {
		keep = 64
	}
	if len(m.inflight) > keep+64 {
		n := copy(m.inflight, m.inflight[len(m.inflight)-keep:])
		m.inflight = m.inflight[:n]
	}

	// Next-block prediction (returns and calls are handled by
	// RAS/direct-target hardware and treated as predicted).
	if exitOutcome != retOutcome {
		correct := true
		if !fm.isSingleExit(b) {
			correct = m.pred.observeHashed(fm.hash, b.ID, exitOutcome)
		}
		// Injection point: force a flush as if the prediction had been
		// wrong. The predictor's tables still trained on the actual
		// outcome above, so only timing is perturbed.
		if m.Inject != nil && m.Inject.ForceMispredict(site) {
			correct = false
			m.Stats.Faults.ForcedMispredicts++
		}
		if !correct {
			m.nextFetchMin = exitResolve + int64(cfg.MispredictPenalty)
			m.Stats.Flushes++
		}
	}
	return res, nil
}

// operandsReady returns when in's operands have all arrived — the
// latest of base and their ready times — and the operand that arrived
// last (NoReg if none arrived after base). It reads the operands that
// Instr.Uses lists, in the same order (A, B, call arguments, an
// OpNullW's destination, the predicate), so ties go to the same
// register, without copying them into a buffer.
func operandsReady(in *ir.Instr, time []int64, base int64) (int64, ir.Reg) {
	ready, waits := base, ir.NoReg
	if r := in.A; r.Valid() && time[r] > ready {
		ready, waits = time[r], r
	}
	if r := in.B; r.Valid() && time[r] > ready {
		ready, waits = time[r], r
	}
	for _, r := range in.Args {
		if time[r] > ready {
			ready, waits = time[r], r
		}
	}
	if r := in.Dst; in.Op == ir.OpNullW && r.Valid() && time[r] > ready {
		ready, waits = time[r], r
	}
	if r := in.Pred; r.Valid() && time[r] > ready {
		ready, waits = time[r], r
	}
	return ready, waits
}

func (m *Machine) operand(fr *frame, r ir.Reg) int64 {
	if !r.Valid() {
		return 0
	}
	return fr.val[r]
}

// cacheAccess returns the extra latency of a data access and updates
// the cache state.
func (m *Machine) cacheAccess(addr int64) int64 {
	if m.cache == nil {
		return 0
	}
	m.Stats.CacheAccesses++
	line := addr / int64(m.Cfg.CacheLineWords)
	if line < 0 {
		line = -line
	}
	idx := line % int64(len(m.cache))
	if m.cache[idx] == line {
		return 0
	}
	m.cache[idx] = line
	m.Stats.CacheMisses++
	return int64(m.Cfg.CacheMissLat)
}

// RunProgram is a convenience wrapper: simulate fn on a fresh machine
// with the default configuration.
func RunProgram(prog *ir.Program, fn string, args ...int64) (int64, Stats, error) {
	m := New(prog, DefaultConfig())
	v, err := m.Run(fn, args...)
	return v, m.Stats, err
}
