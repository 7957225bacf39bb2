package server

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/seeded"
)

// This file is the adaptive overload controller: a CoDel-style
// target-queue-delay loop on dequeue, deadline-aware admission at
// enqueue, and Retry-After advice derived from the observed queue
// drain rate with deterministic seeded jitter. The static MaxQueueAge
// cutoff remains as the hard backstop above all of it.
//
// Everything here is estimate-gated: until a class (and the server as
// a whole) has recorded statsMinSamples completed service times, the
// adaptive gates are inert and admission behaves exactly like the
// pre-controller server. A cold server never sheds on guesses.

// statsMinSamples is how many completed requests an estimator needs
// before its estimates participate in admission decisions.
const statsMinSamples = 8

// statsRing is the per-class service-time sample window (p90 source).
const statsRing = 64

// classStats tracks one workload class's service-time distribution:
// an EWMA for the central tendency and a sample window for the p90
// tail. Only completed service (ok/degraded engine wall time) is
// recorded — timeouts would poison the estimate with the deadline,
// not the cost.
type classStats struct {
	mu     sync.Mutex
	ewmaNS float64
	window *metrics.Window // nil until the first sample
}

// ewmaAlpha weights new samples; 0.2 tracks load shifts within ~10
// requests without thrashing on one outlier.
const ewmaAlpha = 0.2

func (cs *classStats) record(d time.Duration) {
	ns := d.Nanoseconds()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.window == nil {
		cs.window = metrics.NewWindow(statsRing)
		cs.ewmaNS = float64(ns)
	} else {
		cs.ewmaNS = ewmaAlpha*float64(ns) + (1-ewmaAlpha)*cs.ewmaNS
	}
	cs.window.Record(ns)
}

// estimate returns the EWMA, the windowed p90, and the sample count.
func (cs *classStats) estimate() (ewma, p90 time.Duration, n int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.window == nil {
		return 0, 0, 0
	}
	q, _ := cs.window.Quantile(0.9)
	return time.Duration(cs.ewmaNS), time.Duration(q), int(cs.window.Count())
}

// codel is a CoDel-style controller over queue sojourn time: shed
// dequeued work only when delay has stayed above target for a full
// interval, then space further sheds by interval/sqrt(count) so the
// queue is steered back to target instead of being emptied in a
// panic. (Nichols & Jacobson, "Controlling Queue Delay", adapted from
// packet drops to request sheds.)
type codel struct {
	target   time.Duration
	interval time.Duration

	mu         sync.Mutex
	firstAbove time.Time // zero: delay below target
	dropping   bool
	dropNext   time.Time
	count      int
	drops      int64
}

// onDequeue decides whether the task just dequeued should be shed,
// given its queue sojourn time.
func (c *codel) onDequeue(now time.Time, sojourn time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sojourn < c.target {
		c.firstAbove = time.Time{}
		c.dropping = false
		return false
	}
	if c.firstAbove.IsZero() {
		// First sighting above target: arm, don't shed — a transient
		// burst that clears within one interval costs nothing.
		c.firstAbove = now.Add(c.interval)
		return false
	}
	if now.Before(c.firstAbove) {
		return false
	}
	if !c.dropping {
		c.dropping = true
		// Re-entering drop state soon after leaving it resumes near
		// the previous drop rate instead of relearning from 1.
		if c.count > 2 && now.Sub(c.dropNext) < 8*c.interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.drops++
		c.dropNext = now.Add(c.spacing())
		return true
	}
	if !now.Before(c.dropNext) {
		c.count++
		c.drops++
		c.dropNext = c.dropNext.Add(c.spacing())
		return true
	}
	return false
}

// spacing is the control law: successive sheds draw closer as the
// queue stays above target (interval/sqrt(count)).
func (c *codel) spacing() time.Duration {
	return time.Duration(float64(c.interval) / math.Sqrt(float64(c.count)))
}

func (c *codel) snapshot() (dropping bool, count int, drops int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropping, c.count, c.drops
}

// overload bundles the controller state a Server carries.
type overload struct {
	codel codel

	mu      sync.Mutex
	classes map[string]*classStats
	global  classStats

	jitterMu sync.Mutex
	jitter   seeded.Stream // seeded by Config.RetryJitterSeed
}

func newOverload(target, interval time.Duration, jitterSeed uint64) *overload {
	return &overload{
		codel:   codel{target: target, interval: interval},
		classes: map[string]*classStats{},
		jitter:  seeded.Stream(jitterSeed),
	}
}

func (o *overload) class(name string) *classStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	cs := o.classes[name]
	if cs == nil {
		cs = &classStats{}
		o.classes[name] = cs
	}
	return cs
}

// observe records one completed request's service time (engine wall
// time, not queue wait) under its workload class and globally.
func (o *overload) observe(class string, d time.Duration) {
	o.class(class).record(d)
	o.global.record(d)
}

// jitterFactor draws the next deterministic jitter multiplier in
// [0.75, 1.25) from a seeded stream, so a seeded run replays its
// Retry-After advice exactly.
func (o *overload) jitterFactor() float64 {
	o.jitterMu.Lock()
	defer o.jitterMu.Unlock()
	return 0.75 + 0.5*o.jitter.Float()
}

// retryAfter derives shed Retry-After advice from the queue drain
// rate: the time the current backlog needs to clear at the observed
// service rate, spread by deterministic jitter so a synchronized
// client herd desynchronizes instead of stampeding back as one.
// fallback bounds the advice while estimates are cold; the result is
// clamped to [retryFloor, fallback*4] and always positive.
func (o *overload) retryAfter(queueLen, workers int, fallback time.Duration) time.Duration {
	const retryFloor = 50 * time.Millisecond
	base := fallback
	if ewma, _, n := o.global.estimate(); n >= statsMinSamples && workers > 0 {
		base = time.Duration(float64(queueLen+1) * float64(ewma) / float64(workers))
	}
	if base < retryFloor {
		base = retryFloor
	}
	if max := fallback * 4; max > 0 && base > max {
		base = max
	}
	d := time.Duration(float64(base) * o.jitterFactor())
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// missesDeadline is the estimate-driven admission check: the request
// cannot finish inside its own deadline even if admitted right now —
// queue drain plus the class's p90 service time already exceeds the
// budget. Shedding it at enqueue costs the client one RTT; admitting
// it costs a worker slot to produce a guaranteed timeout. budget is
// the request's full deadline; queueLen/workers describe the queue at
// decision time. Inert (false) until both the class and the global
// estimators are warm.
func (o *overload) missesDeadline(class string, budget time.Duration, queueLen, workers int) bool {
	gEwma, _, gn := o.global.estimate()
	if gn < statsMinSamples || workers <= 0 {
		return false
	}
	_, cp90, cn := o.class(class).estimate()
	if cn < statsMinSamples {
		return false
	}
	drain := time.Duration(float64(queueLen) * float64(gEwma) / float64(workers))
	return drain+cp90 > budget
}

// ClassServiceStatus is one class's service-time estimate on
// /statusz.
type ClassServiceStatus struct {
	EwmaMS  float64 `json:"ewma_ms"`
	P90MS   float64 `json:"p90_ms"`
	Samples int     `json:"samples"`
}

// OverloadStatus is the /statusz overload-control surface.
type OverloadStatus struct {
	TargetDelayMS int64   `json:"target_delay_ms"`
	IntervalMS    int64   `json:"interval_ms"`
	Dropping      bool    `json:"dropping"`
	DropCount     int     `json:"drop_count"`
	Drops         int64   `json:"drops"`
	GlobalSamples int     `json:"global_samples"`
	GlobalEwmaMS  float64 `json:"global_ewma_ms"`
	// RetryBaseMS is the current (unjittered) drain-rate Retry-After
	// estimate for a request shed right now.
	RetryBaseMS int64                         `json:"retry_base_ms"`
	Classes     map[string]ClassServiceStatus `json:"classes"`
}

// status snapshots the controller.
func (o *overload) status(queueLen, workers int, fallback time.Duration) OverloadStatus {
	dropping, count, drops := o.codel.snapshot()
	gEwma, _, gn := o.global.estimate()
	st := OverloadStatus{
		TargetDelayMS: o.codel.target.Milliseconds(),
		IntervalMS:    o.codel.interval.Milliseconds(),
		Dropping:      dropping,
		DropCount:     count,
		Drops:         drops,
		GlobalSamples: gn,
		GlobalEwmaMS:  float64(gEwma.Nanoseconds()) / 1e6,
		Classes:       map[string]ClassServiceStatus{},
	}
	base := fallback
	if gn >= statsMinSamples && workers > 0 {
		base = time.Duration(float64(queueLen+1) * float64(gEwma) / float64(workers))
	}
	st.RetryBaseMS = base.Milliseconds()
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, cs := range o.classes {
		ewma, p90, n := cs.estimate()
		st.Classes[name] = ClassServiceStatus{
			EwmaMS:  float64(ewma.Nanoseconds()) / 1e6,
			P90MS:   float64(p90.Nanoseconds()) / 1e6,
			Samples: n,
		}
	}
	return st
}
