// Package chaos is the deterministic fault-injection harness for the
// simulators: seeded fault Plans drive the timing model's injection
// points (internal/sim/timing.Injector), and the invariant oracle
// (Check) proves that injected faults — forced mispredicts,
// operand-network jitter, delayed commits, fetch stalls — perturb
// cycle counts but never architectural state. The same discipline
// superoptimizer-style validators apply to compilers is applied here
// to the machine model itself: a timing bug that leaks into values,
// output, or memory is caught by sweeping every workload under a
// family of fault schedules and demanding byte-identical results
// against the functional simulator.
package chaos

import (
	"fmt"

	"repro/internal/seeded"
	"repro/internal/sim/timing"
)

// Plan is one seeded, deterministic fault schedule. It is stateless:
// every injection decision is a pure hash of (Seed, site, instruction
// index), so a Plan value is safe for concurrent use by independent
// machines and replays identically given the same program — which is
// what makes a chaos failure reproducible from its seed alone.
//
// Rates are per-1024 probabilities at each injection point; Max*
// bound the injected latencies in cycles. Plan implements
// timing.Injector.
type Plan struct {
	Seed int64 `json:"seed"`
	// MispredictRate forces pipeline flushes on predicted exits.
	MispredictRate int `json:"mispredict_rate,omitempty"`
	// FetchStallRate/MaxFetchStall inject transient fetch/map stalls.
	FetchStallRate int   `json:"fetch_stall_rate,omitempty"`
	MaxFetchStall  int64 `json:"max_fetch_stall,omitempty"`
	// CommitDelayRate/MaxCommitDelay delay block commits.
	CommitDelayRate int   `json:"commit_delay_rate,omitempty"`
	MaxCommitDelay  int64 `json:"max_commit_delay,omitempty"`
	// HopJitterRate/MaxHopJitter add operand-network hop latency.
	HopJitterRate int   `json:"hop_jitter_rate,omitempty"`
	MaxHopJitter  int64 `json:"max_hop_jitter,omitempty"`
}

// rateScale is the denominator of the per-site fault probabilities.
const rateScale = 1024

// Name renders the plan compactly for reports and logs.
func (p Plan) Name() string {
	return fmt.Sprintf("plan(seed=%d mp=%d fs=%d/%d cd=%d/%d hj=%d/%d)",
		p.Seed, p.MispredictRate,
		p.FetchStallRate, p.MaxFetchStall,
		p.CommitDelayRate, p.MaxCommitDelay,
		p.HopJitterRate, p.MaxHopJitter)
}

// Active reports whether the plan can inject anything at all.
func (p Plan) Active() bool {
	return p.MispredictRate > 0 || p.FetchStallRate > 0 ||
		p.CommitDelayRate > 0 || p.HopJitterRate > 0
}

// Salts separate the decision streams of the four injection points so
// (for example) a fetch stall and a commit delay on the same block are
// independent coin flips.
const (
	saltMispredict uint64 = 0xa24baed4963ee407
	saltFetch      uint64 = 0x9fb21c651e98df25
	saltCommit     uint64 = 0xd6e8feb86659fd93
	saltHop        uint64 = 0x589965cc75374cc3
)

// roll derives the site's decision word for one injection point.
func (p Plan) roll(salt uint64, s timing.Site, instr int) uint64 {
	h := seeded.Mix(uint64(p.Seed) ^ salt)
	h = seeded.Mix(h ^ seeded.Hash(s.Fn))
	h = seeded.Mix(h ^ seeded.Hash(s.Block))
	return seeded.Mix(h ^ uint64(s.Seq)<<20 ^ uint64(uint32(instr)))
}

// latency turns a decision word into an injected latency: zero with
// probability 1-rate/1024, otherwise uniform in [1, max].
func latency(h uint64, rate int, max int64) int64 {
	if rate <= 0 || max <= 0 {
		return 0
	}
	if h%rateScale >= uint64(rate) {
		return 0
	}
	return 1 + int64((h>>10)%uint64(max))
}

// FetchStall implements timing.Injector.
func (p Plan) FetchStall(s timing.Site) int64 {
	return latency(p.roll(saltFetch, s, -1), p.FetchStallRate, p.MaxFetchStall)
}

// HopJitter implements timing.Injector.
func (p Plan) HopJitter(s timing.Site, instr int) int64 {
	return latency(p.roll(saltHop, s, instr), p.HopJitterRate, p.MaxHopJitter)
}

// CommitDelay implements timing.Injector.
func (p Plan) CommitDelay(s timing.Site) int64 {
	return latency(p.roll(saltCommit, s, -1), p.CommitDelayRate, p.MaxCommitDelay)
}

// ForceMispredict implements timing.Injector.
func (p Plan) ForceMispredict(s timing.Site) bool {
	if p.MispredictRate <= 0 {
		return false
	}
	return p.roll(saltMispredict, s, -1)%rateScale < uint64(p.MispredictRate)
}

// DefaultPlan is a moderate all-sites schedule: every injection point
// active at a few percent, latencies far below the watchdog gap.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:           seed,
		MispredictRate: 32,
		FetchStallRate: 32, MaxFetchStall: 24,
		CommitDelayRate: 32, MaxCommitDelay: 24,
		HopJitterRate: 48, MaxHopJitter: 8,
	}
}

// Plans derives a deterministic sweep of n fault schedules from the
// base seed: a mix of single-site plans (each injection point alone,
// at increasing intensity) and all-sites plans with hashed rates and
// magnitudes. Magnitudes stay well below the watchdog gap so a plan
// never trips the watchdog on a healthy workload.
func Plans(seed int64, n int) []Plan {
	out := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		h := seeded.Mix(uint64(seed)*0x6c62272e07bb0142 + uint64(i))
		rate := 8 << (h % 6)        // 8..256 per 1024
		mag := int64(1 + (h>>8)%48) // 1..48 cycles
		switch i % 5 {
		case 0:
			out = append(out, Plan{Seed: s, MispredictRate: rate})
		case 1:
			out = append(out, Plan{Seed: s, FetchStallRate: rate, MaxFetchStall: mag})
		case 2:
			out = append(out, Plan{Seed: s, CommitDelayRate: rate, MaxCommitDelay: mag})
		case 3:
			out = append(out, Plan{Seed: s, HopJitterRate: rate, MaxHopJitter: 1 + mag/6})
		default:
			out = append(out, Plan{
				Seed:           s,
				MispredictRate: rate / 4,
				FetchStallRate: rate / 2, MaxFetchStall: mag,
				CommitDelayRate: rate / 2, MaxCommitDelay: mag,
				HopJitterRate: rate, MaxHopJitter: 1 + mag/6,
			})
		}
	}
	return out
}
