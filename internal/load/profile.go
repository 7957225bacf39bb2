// Package load turns the workload corpus into replayable traffic: a
// set of deterministic, seeded open-loop arrival generators (steady,
// bursty on/off, diurnal ramp, adversarial deep-call-chain, hot-key
// zipf over few programs × many configs), a replay driver that fires
// the schedule at an hbserved or hbfront endpoint, and a structured
// report with goodput (ok responses inside their deadline), a shed
// breakdown, and latency quantiles per workload class.
//
// Everything downstream of a (profile, seed) pair is a pure function
// of it: the same seed produces a byte-identical request stream, so a
// red overload run replays exactly — the same property the chaos and
// storm harnesses give fault schedules, extended to traffic.
package load

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/seeded"
	"repro/internal/workloads/corpus"
)

// Profile names one arrival-pattern family.
type Profile string

const (
	// Steady is a constant-rate open-loop stream with light jitter —
	// the calibration profile.
	Steady Profile = "steady"
	// Bursty is an on/off square wave: the full request budget is
	// compressed into on-windows at several times the mean rate, with
	// silent gaps between. The overload-control acceptance profile.
	Bursty Profile = "bursty"
	// Diurnal ramps the rate sinusoidally over the run — one
	// compressed day: quiet start, peak in the middle, quiet end.
	Diurnal Profile = "diurnal"
	// Adversarial draws every program from the corpus's deepest
	// call-chain cluster: the most formation-expensive class arriving
	// at a steady rate.
	Adversarial Profile = "adversarial"
	// HotKey is a zipf-weighted draw over a few hot programs crossed
	// with many (ordering, args) configs — the realistic serving mix
	// of few programs × many configurations, mostly cache-absorbable.
	HotKey Profile = "hotkey"
)

// Profiles lists every profile.
func Profiles() []Profile {
	return []Profile{Steady, Bursty, Diurnal, Adversarial, HotKey}
}

// Valid reports whether p names a known profile.
func (p Profile) Valid() bool {
	for _, q := range Profiles() {
		if p == q {
			return true
		}
	}
	return false
}

// Arrival is one scheduled request. The JSON encoding of the arrival
// sequence IS the replayable request stream: integer-only fields,
// fixed order, no timestamps — two runs of the same (profile, seed)
// emit identical bytes.
type Arrival struct {
	// Seq is the arrival index; AtUS is the offset from run start in
	// microseconds.
	Seq  int   `json:"seq"`
	AtUS int64 `json:"at_us"`
	// ProgramSeed regenerates the program (corpus seed); ProgramIdx is
	// its corpus index (also the storm driver's key index).
	ProgramSeed int64 `json:"program_seed"`
	ProgramIdx  int   `json:"program_idx"`
	// Class is the program's cluster ID — the request workload class.
	Class string `json:"class"`
	// Ordering optionally overrides the phase ordering (the config
	// dimension of the hot-key profile); Args parameterize main.
	Ordering string  `json:"ordering,omitempty"`
	Args     []int64 `json:"args"`
	// TimeoutMS is the per-request deadline.
	TimeoutMS int64 `json:"timeout_ms"`
}

// ScheduleConfig parameterizes Schedule.
type ScheduleConfig struct {
	Profile Profile
	Seed    int64
	// Requests is the arrival count (default 200); Duration is the
	// schedule span (default 10s). Offered rate = Requests/Duration —
	// overload is dialed in by raising Requests or shrinking Duration
	// against a known server capacity.
	Requests int
	Duration time.Duration
	// Timeout is the per-request deadline (default 2s).
	Timeout time.Duration
	// Corpus supplies the programs (required).
	Corpus *corpus.Corpus
}

func (c ScheduleConfig) withDefaults() ScheduleConfig {
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// rng is the package's seeded stream, so schedules are reproducible
// without depending on math/rand stream stability.
type rng struct{ seeded.Stream }

func (r *rng) intn(n int) int { return int(r.Next() % uint64(n)) }

// Schedule builds the deterministic arrival sequence for one
// (profile, seed) pair over the given corpus.
func Schedule(cfg ScheduleConfig) ([]Arrival, error) {
	cfg = cfg.withDefaults()
	if !cfg.Profile.Valid() {
		return nil, fmt.Errorf("load: unknown profile %q (have %v)", cfg.Profile, Profiles())
	}
	if cfg.Corpus == nil || len(cfg.Corpus.Programs) == 0 {
		return nil, fmt.Errorf("load: ScheduleConfig.Corpus is required")
	}
	// The profile name's hash separates sibling profiles at one seed.
	r := rng{seeded.Stream(uint64(cfg.Seed)*seeded.Gamma + seeded.Hash(string(cfg.Profile)))}
	times := arrivalTimes(&r, cfg)
	out := make([]Arrival, cfg.Requests)
	pick := programPicker(&r, cfg)
	for i := range out {
		a := pick(i)
		a.Seq = i
		a.AtUS = times[i].Microseconds()
		a.TimeoutMS = cfg.Timeout.Milliseconds()
		out[i] = a
	}
	return out, nil
}

// arrivalTimes lays the request budget over the duration according to
// the profile's rate shape, sorted ascending.
func arrivalTimes(r *rng, cfg ScheduleConfig) []time.Duration {
	n, span := cfg.Requests, cfg.Duration
	out := make([]time.Duration, n)
	switch cfg.Profile {
	case Bursty:
		// Eight on/off periods; arrivals land only in the first
		// quarter of each period, so the instantaneous on-rate is 4×
		// the mean — sustained pressure followed by drain windows, the
		// shape retry storms and queue controllers care about.
		const periods = 8
		period := span / periods
		on := period / 4
		for i := range out {
			p := time.Duration(r.intn(periods))
			out[i] = p*period + time.Duration(r.Float()*float64(on))
		}
	case Diurnal:
		// Density ∝ 1 + 0.9·sin(2πt/span − π/2): near-zero at the
		// edges, peak at the middle. Sampled by rejection against the
		// normalized density, which keeps the math integer-free on the
		// output side.
		for i := range out {
			for {
				t := r.Float()
				d := (1 + 0.9*math.Sin(2*math.Pi*t-math.Pi/2)) / 1.9
				if r.Float() < d {
					out[i] = time.Duration(t * float64(span))
					break
				}
			}
		}
	default: // steady, adversarial, hotkey: even spacing, ±30% jitter
		step := float64(span) / float64(n)
		for i := range out {
			j := (r.Float() - 0.5) * 0.6 * step
			out[i] = time.Duration(float64(i)*step + j)
			if out[i] < 0 {
				out[i] = 0
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// orderings is the config dimension of the hot-key profile. The list
// is fixed here rather than imported from the compiler so a stream
// replays identically even if the compiler grows orderings later.
var orderings = []string{"(IUPO)", "IUPO", "(IUP)O"}

// programPicker returns the profile's program/config chooser.
func programPicker(r *rng, cfg ScheduleConfig) func(i int) Arrival {
	c := cfg.Corpus
	fromIdx := func(idx int) Arrival {
		p := c.Programs[idx]
		return Arrival{
			ProgramSeed: p.Seed,
			ProgramIdx:  idx,
			Class:       p.Cluster,
			Args:        []int64{int64(r.intn(8)), int64(r.intn(8))},
		}
	}
	switch cfg.Profile {
	case Adversarial:
		members := c.Members(c.DeepCallCluster())
		return func(int) Arrival { return fromIdx(members[r.intn(len(members))]) }
	case HotKey:
		// Few programs, many configs: 4 hot programs under a zipf-ish
		// 8/4/2/1 weighting, each request a fresh (ordering, args)
		// combination so the key space is hot-program × config.
		hot := make([]int, 4)
		for i := range hot {
			hot[i] = r.intn(len(c.Programs))
		}
		return func(int) Arrival {
			w := r.intn(15)
			rank := 3
			switch {
			case w < 8:
				rank = 0
			case w < 12:
				rank = 1
			case w < 14:
				rank = 2
			}
			a := fromIdx(hot[rank])
			a.Ordering = orderings[r.intn(len(orderings))]
			return a
		}
	default: // steady, bursty, diurnal: uniform over the whole corpus
		return func(int) Arrival { return fromIdx(r.intn(len(c.Programs))) }
	}
}
