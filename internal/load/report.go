package load

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Outcome is one request's recorded result.
type Outcome struct {
	Seq   int    `json:"seq"`
	Class string `json:"class"` // workload class (cluster ID)
	// ErrClass is the server's taxonomy class ("" when the request was
	// lost: no terminal response at all — always an SLO violation).
	ErrClass string `json:"err_class,omitempty"`
	// LatencyMS is the client-observed latency; TimeoutMS echoes the
	// request deadline; RetryAfterMS echoes a shed response's advice.
	LatencyMS    float64 `json:"latency_ms"`
	TimeoutMS    int64   `json:"timeout_ms"`
	RetryAfterMS int64   `json:"retry_after_ms,omitempty"`
	// CacheHit echoes the server's full-result cache flag;
	// SkeletonHit/SkeletonFallbacks echo the two-level cache's
	// skeleton-replay outcome for the compile behind this response.
	CacheHit          bool   `json:"cache_hit,omitempty"`
	SkeletonHit       bool   `json:"skeleton_hit,omitempty"`
	SkeletonFallbacks int    `json:"skeleton_fallbacks,omitempty"`
	Err               string `json:"err,omitempty"`
}

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 { return metrics.Quantile(sorted, q) }
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Quantiles{
		N: len(sorted), P50: at(0.50), P90: at(0.90), P99: at(0.99),
		Max: sorted[len(sorted)-1], Mean: sum / float64(len(sorted)),
	}
}

// ClassReport is one workload class's slice of the run.
type ClassReport struct {
	Offered int `json:"offered"`
	// Classes counts terminal taxonomy classes for this workload class.
	Classes map[string]int `json:"classes"`
	Goodput int            `json:"goodput"`
	// Latency covers admitted (non-shed) responses only.
	Latency Quantiles `json:"latency"`
}

// RetrySummary characterizes the Retry-After advice shed responses
// carried. Distinct > 1 under sustained shedding is the jitter proof:
// a constant hint synchronizes the retry storm it is trying to avoid.
type RetrySummary struct {
	Count    int   `json:"count"`
	MinMS    int64 `json:"min_ms"`
	MaxMS    int64 `json:"max_ms"`
	Distinct int   `json:"distinct"`
	// Zeroes counts shed responses with no positive Retry-After at
	// all — always a bug.
	Zeroes int `json:"zeroes"`
}

// Report is the structured outcome of one replay.
type Report struct {
	Profile string `json:"profile"`
	Seed    int64  `json:"seed"`
	Target  string `json:"target"`

	// Offered counts scheduled requests; Lost counts requests with no
	// terminal response (transport failure — an invariant break, not
	// load shedding); Admitted counts responses the server accepted
	// (every terminal class except shed and invalid-input).
	Offered  int `json:"offered"`
	Lost     int `json:"lost"`
	Admitted int `json:"admitted"`
	// Goodput counts responses that were ok (or degraded) AND inside
	// their deadline; GoodputRatio is Goodput/Offered.
	Goodput      int     `json:"goodput"`
	GoodputRatio float64 `json:"goodput_ratio"`
	// DeadlineMisses counts admitted responses whose latency exceeded
	// deadline+grace (grace recorded alongside); MaxOverrunMS is the
	// worst admitted latency beyond its deadline.
	DeadlineMisses int     `json:"deadline_misses"`
	GraceMS        int64   `json:"grace_ms"`
	MaxOverrunMS   float64 `json:"max_overrun_ms"`

	// Compiles counts successful responses that were not full-result
	// cache hits (each cost a compile on some shard); SkeletonHits is
	// the subset served by skeleton replay instead of the greedy
	// formation search, SkeletonFallbacks the functions within those
	// replays that fell back, and SkeletonHitRate is
	// SkeletonHits/Compiles (0 when no compiles happened).
	Compiles          int     `json:"compiles"`
	SkeletonHits      int     `json:"skeleton_hits"`
	SkeletonFallbacks int     `json:"skeleton_fallbacks"`
	SkeletonHitRate   float64 `json:"skeleton_hit_rate"`

	// Classes counts terminal taxonomy classes; Latency covers
	// admitted responses; GoodLatency covers goodput responses only.
	Classes     map[string]int          `json:"classes"`
	Latency     Quantiles               `json:"latency"`
	GoodLatency Quantiles               `json:"good_latency"`
	ShedRetry   RetrySummary            `json:"shed_retry_after"`
	PerClass    map[string]*ClassReport `json:"per_class"`

	ElapsedMS float64 `json:"elapsed_ms"`
	// SLOViolations is filled by CheckSLO when an SLO is attached.
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// admittedClass reports whether a taxonomy class means the server
// accepted the request (occupied a worker or at least a queue slot
// for it). Shed and invalid-input never entered; a lost request has
// no class at all.
func admittedClass(c string) bool {
	switch c {
	case "shed", "invalid-input", "":
		return false
	}
	return true
}

// goodClass reports whether a class counts toward goodput (paired
// with an in-deadline latency check by the caller).
func goodClass(c string) bool { return c == "ok" || c == "degraded" }

// BuildReport aggregates outcomes into a report. grace is the
// deadline-miss tolerance (cooperative cancellation is polled, so a
// terminal timeout response lands slightly after the deadline by
// construction — beyond grace it counts as a miss).
func BuildReport(profile Profile, seed int64, target string, outcomes []Outcome, elapsed time.Duration, grace time.Duration) *Report {
	rep := &Report{
		Profile:   string(profile),
		Seed:      seed,
		Target:    target,
		Offered:   len(outcomes),
		GraceMS:   grace.Milliseconds(),
		Classes:   map[string]int{},
		PerClass:  map[string]*ClassReport{},
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
	}
	var all, good []float64
	retrySeen := map[int64]bool{}
	for _, o := range outcomes {
		cr := rep.PerClass[o.Class]
		if cr == nil {
			cr = &ClassReport{Classes: map[string]int{}}
			rep.PerClass[o.Class] = cr
		}
		cr.Offered++
		if o.ErrClass == "" {
			rep.Lost++
			rep.Classes["lost"]++
			cr.Classes["lost"]++
			continue
		}
		rep.Classes[o.ErrClass]++
		cr.Classes[o.ErrClass]++
		if o.ErrClass == "shed" {
			rep.ShedRetry.Count++
			if o.RetryAfterMS <= 0 {
				rep.ShedRetry.Zeroes++
			} else {
				if !retrySeen[o.RetryAfterMS] {
					retrySeen[o.RetryAfterMS] = true
					rep.ShedRetry.Distinct++
				}
				if rep.ShedRetry.MinMS == 0 || o.RetryAfterMS < rep.ShedRetry.MinMS {
					rep.ShedRetry.MinMS = o.RetryAfterMS
				}
				if o.RetryAfterMS > rep.ShedRetry.MaxMS {
					rep.ShedRetry.MaxMS = o.RetryAfterMS
				}
			}
		}
		if !admittedClass(o.ErrClass) {
			continue
		}
		rep.Admitted++
		all = append(all, o.LatencyMS)
		deadline := float64(o.TimeoutMS)
		if over := o.LatencyMS - deadline; over > rep.MaxOverrunMS {
			rep.MaxOverrunMS = over
		}
		if o.LatencyMS > deadline+float64(grace.Milliseconds()) {
			rep.DeadlineMisses++
		}
		if goodClass(o.ErrClass) && !o.CacheHit {
			rep.Compiles++
			if o.SkeletonHit {
				rep.SkeletonHits++
				rep.SkeletonFallbacks += o.SkeletonFallbacks
			}
		}
		if goodClass(o.ErrClass) && o.LatencyMS <= deadline {
			rep.Goodput++
			cr.Goodput++
			good = append(good, o.LatencyMS)
		}
	}
	if rep.Compiles > 0 {
		rep.SkeletonHitRate = float64(rep.SkeletonHits) / float64(rep.Compiles)
	}
	if rep.Offered > 0 {
		rep.GoodputRatio = float64(rep.Goodput) / float64(rep.Offered)
	}
	rep.Latency = quantiles(all)
	rep.GoodLatency = quantiles(good)
	for class, cr := range rep.PerClass {
		var lat []float64
		for _, o := range outcomes {
			if o.Class == class && admittedClass(o.ErrClass) {
				lat = append(lat, o.LatencyMS)
			}
		}
		cr.Latency = quantiles(lat)
	}
	return rep
}

// SLO is the goodput service-level objective an overload run is held
// to.
type SLO struct {
	// GoodputFloor is the minimum Goodput/Offered ratio.
	GoodputFloor float64
	// Grace bounds how far past its deadline an admitted request may
	// terminate (cooperative-cancellation slack). Zero misses beyond
	// grace are tolerated.
	Grace time.Duration
	// MaxP50 bounds the median latency of goodput responses — an
	// overloaded server must stay fast for the work it accepts.
	MaxP50 time.Duration
	// MinShedForJitter: when at least this many sheds occurred, their
	// Retry-After values must be jittered (≥ 3 distinct, none zero).
	// <= 0 disables the jitter assertion.
	MinShedForJitter int
}

// CheckSLO evaluates the SLO against the report, records violations
// in it, and returns them.
func (r *Report) CheckSLO(slo SLO) []string {
	var v []string
	if r.Lost > 0 {
		v = append(v, fmt.Sprintf("%d requests lost (no terminal response)", r.Lost))
	}
	if r.GoodputRatio < slo.GoodputFloor {
		v = append(v, fmt.Sprintf("goodput %.3f below floor %.3f (%d/%d)",
			r.GoodputRatio, slo.GoodputFloor, r.Goodput, r.Offered))
	}
	if r.DeadlineMisses > 0 {
		v = append(v, fmt.Sprintf("%d admitted requests missed their deadline by more than the %s grace (worst overrun %.1fms)",
			r.DeadlineMisses, slo.Grace, r.MaxOverrunMS))
	}
	if slo.MaxP50 > 0 && r.GoodLatency.N > 0 {
		if maxMS := float64(slo.MaxP50.Nanoseconds()) / 1e6; r.GoodLatency.P50 > maxMS {
			v = append(v, fmt.Sprintf("goodput p50 %.1fms above bound %.1fms", r.GoodLatency.P50, maxMS))
		}
	}
	if slo.MinShedForJitter > 0 && r.ShedRetry.Count >= slo.MinShedForJitter {
		if r.ShedRetry.Zeroes > 0 {
			v = append(v, fmt.Sprintf("%d shed responses carried no Retry-After", r.ShedRetry.Zeroes))
		}
		if r.ShedRetry.Distinct < 3 {
			v = append(v, fmt.Sprintf("shed Retry-After not jittered: %d sheds, only %d distinct values",
				r.ShedRetry.Count, r.ShedRetry.Distinct))
		}
	}
	r.SLOViolations = v
	return v
}
