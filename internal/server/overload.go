package server

import (
	"sync"
	"time"

	"repro/internal/seeded"
)

// This file holds the Retry-After advice a shed response carries: the
// time the current backlog needs to clear at the observed service
// rate, with deterministic seeded jitter. The queue rules themselves
// (the queue cap and the half-deadline queue age) live in server.go.

// statsMinSamples is how many completed requests the service-time
// estimate needs before Retry-After trusts it over the cold fallback.
const statsMinSamples = 8

// ewmaAlpha weights new samples; 0.2 tracks load shifts within ~10
// requests without thrashing on one outlier.
const ewmaAlpha = 0.2

// overload is the shed-advice state a Server carries: one global
// service-time EWMA over completed requests and the seeded jitter
// stream.
type overload struct {
	mu      sync.Mutex
	ewmaNS  float64
	samples int
	jitter  seeded.Stream // seeded by Config.RetryJitterSeed
}

func newOverload(jitterSeed uint64) *overload {
	return &overload{jitter: seeded.Stream(jitterSeed)}
}

// observe records one completed request's service time (engine wall
// time, not queue wait). Only ok/degraded completions are recorded —
// timeouts would poison the estimate with the deadline, not the cost.
func (o *overload) observe(d time.Duration) {
	ns := float64(d.Nanoseconds())
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.samples == 0 {
		o.ewmaNS = ns
	} else {
		o.ewmaNS = ewmaAlpha*ns + (1-ewmaAlpha)*o.ewmaNS
	}
	o.samples++
}

// retryAfter derives shed Retry-After advice from the queue drain
// rate: the time the current backlog needs to clear at the observed
// service rate, spread by deterministic jitter in [0.75, 1.25) so a
// synchronized client herd desynchronizes instead of stampeding back
// as one, and a seeded run replays its advice exactly. fallback
// stands in while the estimate is cold; the result is clamped to
// [retryFloor, fallback*4] and always positive.
func (o *overload) retryAfter(queueLen, workers int, fallback time.Duration) time.Duration {
	const retryFloor = 50 * time.Millisecond
	o.mu.Lock()
	defer o.mu.Unlock()
	base := fallback
	if o.samples >= statsMinSamples && workers > 0 {
		base = time.Duration(float64(queueLen+1) * o.ewmaNS / float64(workers))
	}
	if base < retryFloor {
		base = retryFloor
	}
	if max := fallback * 4; max > 0 && base > max {
		base = max
	}
	d := time.Duration(float64(base) * (0.75 + 0.5*o.jitter.Float()))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// OverloadStatus is the /statusz view of the service-time estimate
// behind Retry-After.
type OverloadStatus struct {
	GlobalSamples int     `json:"global_samples"`
	GlobalEwmaMS  float64 `json:"global_ewma_ms"`
}

func (o *overload) status() OverloadStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	return OverloadStatus{GlobalSamples: o.samples, GlobalEwmaMS: o.ewmaNS / 1e6}
}
