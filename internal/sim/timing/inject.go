package timing

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Site identifies one dynamic fault-injection site: a block execution,
// named by its function, block, and the machine-wide block sequence
// number (Stats.Blocks at fetch time). The same Site is presented to
// the injector for every query about that block execution, so a
// deterministic injector can key its decisions on it.
type Site struct {
	Fn    string
	Block string
	Seq   int64
}

// Injector is the timing model's fault-injection interface. The
// machine consults it (when Machine.Inject is non-nil) at four
// injection points; every fault perturbs timing only — injected
// latencies and forced flushes can change cycle counts but can never
// reach architectural state (values, output, memory), which is the
// invariant internal/chaos verifies.
//
// Implementations must be deterministic functions of their arguments
// (and any seed fixed at construction): the same program under the
// same injector must produce the same cycle count. They must also be
// safe for concurrent use by independent machines.
type Injector interface {
	// FetchStall returns extra cycles to add before the block's fetch
	// starts (a transient fetch/map stall).
	FetchStall(s Site) int64
	// HopJitter returns extra operand-network hop latency for the
	// instruction at index instr in the block (added on top of
	// Config.RoutingLat when the result is routed to consumers).
	HopJitter(s Site, instr int) int64
	// CommitDelay returns extra cycles to add to the block's commit.
	CommitDelay(s Site) int64
	// ForceMispredict reports whether the block's exit prediction
	// should be treated as wrong regardless of the predictor's answer,
	// forcing a flush. The predictor's tables still train normally.
	ForceMispredict(s Site) bool
}

// FaultCounts tallies the faults an injector actually landed during a
// run, by injection point, plus the total latency injected.
type FaultCounts struct {
	FetchStalls       int64 `json:"fetch_stalls,omitempty"`
	HopJitters        int64 `json:"hop_jitters,omitempty"`
	CommitDelays      int64 `json:"commit_delays,omitempty"`
	ForcedMispredicts int64 `json:"forced_mispredicts,omitempty"`
	// ExtraCycles sums the injected latencies (not the forced-flush
	// penalties, which are charged at the model's MispredictPenalty).
	ExtraCycles int64 `json:"extra_cycles,omitempty"`
}

// Total returns the number of faults injected across all sites.
func (f FaultCounts) Total() int64 {
	return f.FetchStalls + f.HopJitters + f.CommitDelays + f.ForcedMispredicts
}

// ErrWatchdog reports that the simulator's progress watchdog aborted
// the run: either no instruction committed for Config.WatchdogGap
// cycles, or the run exceeded Config.MaxCycles. The returned error is
// a *StuckError carrying the full StuckReport; test with
// errors.Is(err, ErrWatchdog) and unpack with errors.As.
var ErrWatchdog = errors.New("timing: watchdog tripped")

// StuckError wraps a StuckReport as an error.
type StuckError struct {
	Report StuckReport
}

func (e *StuckError) Error() string {
	return "timing: watchdog: " + e.Report.String()
}

// Unwrap makes errors.Is(err, ErrWatchdog) true.
func (e *StuckError) Unwrap() error { return ErrWatchdog }

// StuckReport is the watchdog's structured diagnostic: where the
// machine was when progress stopped, which blocks were in flight, and
// which instructions had not completed — with the operand each one
// was waiting on — instead of a silent hang.
//
// A run records no per-instruction trail, so the Stalled list comes
// from a second run: when the watchdog trips in a Run that started on
// a fresh machine (Stats.Blocks == 0), Run simulates the same call
// again on a new machine with the same program, Config, Inject and
// context, this time recording, and takes the Stalled list from that
// run's trip at the same BlockSeq. The re-run starts from the
// program's initial memory image and leaves the tripped machine's
// Stats untouched. A machine that has run before cannot be replayed
// that way, so on a reused machine Stalled stays empty.
type StuckReport struct {
	// Reason says which bound tripped ("no commit for N cycles" or
	// "cycle budget exceeded").
	Reason string `json:"reason"`
	// Fn/Block/BlockSeq name the block execution that tripped the
	// watchdog.
	Fn       string `json:"fn"`
	Block    string `json:"block"`
	BlockSeq int64  `json:"block_seq"`
	// PrevCommit is the cycle of the last successful commit; Cycle is
	// the commit cycle the stuck block would have reached.
	PrevCommit int64 `json:"prev_commit"`
	Cycle      int64 `json:"cycle"`
	// InFlight lists the most recent blocks in the speculation window
	// with their commit cycles (newest last, the stuck block
	// excluded).
	InFlight []InFlightBlock `json:"in_flight,omitempty"`
	// Stalled lists the stuck block's instructions that had not
	// completed by PrevCommit, newest-completion first (capped; empty
	// on a reused machine).
	Stalled []StalledInstr `json:"stalled,omitempty"`
}

// InFlightBlock is one block in the speculation window.
type InFlightBlock struct {
	Fn     string `json:"fn"`
	Block  string `json:"block"`
	Commit int64  `json:"commit"`
}

// StalledInstr is one instruction that had not completed when the
// watchdog fired, with the operand that dominated its readiness.
type StalledInstr struct {
	// Index is the instruction's position in the block; Op its opcode
	// and Dst its destination register ("-" if none).
	Index int    `json:"index"`
	Op    string `json:"op"`
	Dst   string `json:"dst"`
	// WaitsOn is the operand register whose readiness time dominated
	// the instruction's issue ("-" when it was ready at fetch and only
	// waiting on issue bandwidth or execution latency).
	WaitsOn string `json:"waits_on"`
	// ReadyAt is when the instruction's operands were ready;
	// CompleteAt when its result was produced.
	ReadyAt    int64 `json:"ready_at"`
	CompleteAt int64 `json:"complete_at"`
}

// String renders the report on one line (the multi-line detail is in
// Format).
func (r StuckReport) String() string {
	return fmt.Sprintf("%s at %s.%s (block #%d): last commit %d, stuck commit %d, %d in flight, %d stalled",
		r.Reason, r.Fn, r.Block, r.BlockSeq, r.PrevCommit, r.Cycle, len(r.InFlight), len(r.Stalled))
}

// Format renders the full multi-line diagnostic.
func (r StuckReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "watchdog: %s\n", r.String())
	for _, b := range r.InFlight {
		fmt.Fprintf(&sb, "  in flight: %s.%s commit=%d\n", b.Fn, b.Block, b.Commit)
	}
	for _, in := range r.Stalled {
		fmt.Fprintf(&sb, "  stalled: #%d %s dst=%s waits on %s ready=%d complete=%d\n",
			in.Index, in.Op, in.Dst, in.WaitsOn, in.ReadyAt, in.CompleteAt)
	}
	return sb.String()
}

// maxStalledReported caps the Stalled list so a pathological block
// cannot bloat the report.
const maxStalledReported = 8

// stuck builds the watchdog error for the current block execution.
func (m *Machine) stuck(reason string, f *ir.Function, b *ir.Block, seq, prevCommit, cycle int64) error {
	rep := StuckReport{
		Reason:     reason,
		Fn:         f.Name,
		Block:      b.Name,
		BlockSeq:   seq,
		PrevCommit: prevCommit,
		Cycle:      cycle,
	}
	window := m.Cfg.MaxInflight
	if window <= 0 || window > len(m.inflight) {
		window = len(m.inflight)
	}
	for _, fl := range m.inflight[len(m.inflight)-window:] {
		rep.InFlight = append(rep.InFlight, InFlightBlock{Fn: fl.fn, Block: fl.block, Commit: fl.commit})
	}
	// Report the instructions that had not completed at the last
	// commit, slowest first: these are the ones the commit is waiting
	// on, and rec.waits names the operand that held each one up.
	for i := len(m.recs) - 1; i >= 0 && len(rep.Stalled) < maxStalledReported; i-- {
		rec := m.recs[i]
		if rec.complete <= prevCommit {
			continue
		}
		rep.Stalled = append(rep.Stalled, StalledInstr{
			Index:      rec.index,
			Op:         rec.op.String(),
			Dst:        rec.dst.String(),
			WaitsOn:    rec.waits.String(),
			ReadyAt:    rec.ready,
			CompleteAt: rec.complete,
		})
	}
	return &StuckError{Report: rep}
}
