package server

import (
	"sync"
	"time"

	"repro/internal/seeded"
)

// BreakerConfig tunes the per-workload-class circuit breakers.
type BreakerConfig struct {
	// Window is the sliding outcome window consulted for tripping
	// (default 20 outcomes).
	Window int
	// MinSamples is the minimum number of recorded outcomes before
	// the breaker may trip (default 8) — a single early failure must
	// not open a cold class.
	MinSamples int
	// FailureRate opens the breaker when failures/window reaches it
	// (default 0.5).
	FailureRate float64
	// Backoff is the base open→half-open delay; consecutive opens
	// double it up to MaxBackoff, and each delay is jittered in
	// [0.5x, 1.5x) so a fleet of breakers does not half-open in
	// lockstep. Defaults 2s / 30s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// HalfOpenProbes is the number of consecutive probe successes
	// required to close from half-open (default 1).
	HalfOpenProbes int
	// JitterSeed makes the jitter stream deterministic for tests
	// (0 keeps determinism too — the stream is seeded per breaker
	// from the seed and the class name).
	JitterSeed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.FailureRate <= 0 {
		c.FailureRate = 0.5
	}
	if c.Backoff <= 0 {
		c.Backoff = 2 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	return c
}

// BreakerState is the classic three-state circuit-breaker machine.
type BreakerState string

const (
	// BreakerClosed admits everything and watches the failure rate.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen rejects everything until the jittered backoff
	// elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen admits one probe at a time; enough successes
	// close the breaker, any failure reopens it with doubled backoff.
	BreakerHalfOpen BreakerState = "half-open"
)

// Breaker is one workload class's circuit breaker. All methods are
// safe for concurrent use.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state BreakerState
	// ring is the sliding outcome window (true = failure).
	ring  []bool
	ringN int // outcomes recorded (capped at len(ring))
	ringI int // next write position
	fails int // failures currently in the window

	reopenAt    time.Time // open: when half-open becomes allowed
	consecOpens int       // consecutive opens without a close (backoff exponent)
	probeActive bool      // half-open: a probe is in flight
	probeOKs    int       // half-open: consecutive probe successes

	rng seeded.Stream // backoff jitter

	// Transition counters (monotonic; surfaced in /statusz and
	// asserted by the chaos test's open/half-open/close cycle check).
	opens, halfOpens, closes int64
}

// NewBreaker builds a closed breaker. seedSalt (typically a hash of
// the class name) separates the jitter streams of sibling breakers.
func NewBreaker(cfg BreakerConfig, seedSalt uint64) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:   cfg,
		state: BreakerClosed,
		ring:  make([]bool, cfg.Window),
		rng:   seeded.Stream(uint64(cfg.JitterSeed)*seeded.Gamma + seedSalt + 1),
	}
}

// backoff returns the jittered open duration for the current
// consecutive-open count.
func (b *Breaker) backoff() time.Duration {
	d := b.cfg.Backoff
	for i := 1; i < b.consecOpens && d < b.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > b.cfg.MaxBackoff {
		d = b.cfg.MaxBackoff
	}
	// Jitter in [0.5x, 1.5x).
	j := 0.5 + float64(b.rng.Next()%1024)/1024.0
	return time.Duration(float64(d) * j)
}

// Allow reports whether a request of this class may proceed at time
// now. When it returns false, retryAfter is the suggested client
// backoff. An open breaker whose backoff has elapsed transitions to
// half-open and admits the caller as the probe; the caller must then
// either Record the outcome or ReleaseProbe if the request never
// executed (shed downstream).
func (b *Breaker) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if now.Before(b.reopenAt) {
			// At least 1ms: shed responses carry whole milliseconds, and
			// a shed must never advise retrying after 0.
			return false, max(b.reopenAt.Sub(now), time.Millisecond)
		}
		b.state = BreakerHalfOpen
		b.halfOpens++
		b.probeActive = true
		b.probeOKs = 0
		return true, 0
	default: // half-open
		if b.probeActive {
			// One probe at a time; tell the rest to come back soon.
			return false, b.cfg.Backoff / 2
		}
		b.probeActive = true
		return true, 0
	}
}

// ReleaseProbe undoes a probe admission whose request never executed
// (e.g. it was shed by the admission queue after Allow), so the
// half-open breaker does not deadlock waiting for an outcome that
// will never be recorded.
func (b *Breaker) ReleaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probeActive = false
	}
}

// Record feeds one executed request's outcome into the breaker.
func (b *Breaker) Record(now time.Time, failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		// Slide the window.
		if b.ringN == len(b.ring) {
			if b.ring[b.ringI] {
				b.fails--
			}
		} else {
			b.ringN++
		}
		b.ring[b.ringI] = failure
		if failure {
			b.fails++
		}
		b.ringI = (b.ringI + 1) % len(b.ring)
		if b.ringN >= b.cfg.MinSamples &&
			float64(b.fails) >= b.cfg.FailureRate*float64(b.ringN) {
			b.open(now)
		}
	case BreakerHalfOpen:
		b.probeActive = false
		if failure {
			b.open(now)
			return
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.HalfOpenProbes {
			b.close()
		}
	case BreakerOpen:
		// A request admitted before the trip finished after it; the
		// window restarts from scratch on close, so drop it.
	}
}

// open transitions to open (from closed or half-open) with a fresh
// jittered backoff. Caller holds the lock.
func (b *Breaker) open(now time.Time) {
	b.state = BreakerOpen
	b.consecOpens++
	b.opens++
	b.reopenAt = now.Add(b.backoff())
	b.resetWindow()
}

// close transitions half-open → closed. Caller holds the lock.
func (b *Breaker) close() {
	b.state = BreakerClosed
	b.closes++
	b.consecOpens = 0
	b.probeActive = false
	b.probeOKs = 0
	b.resetWindow()
}

func (b *Breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.ringN, b.ringI, b.fails = 0, 0, 0
}

// BreakerStatus is the breaker's observable state for /statusz.
type BreakerStatus struct {
	State BreakerState `json:"state"`
	// Window occupancy and failure count (closed state only).
	Samples  int `json:"samples"`
	Failures int `json:"failures"`
	// Transition counters since server start.
	Opens     int64 `json:"opens"`
	HalfOpens int64 `json:"half_opens"`
	Closes    int64 `json:"closes"`
	// RetryAfterMS is the remaining open backoff (0 unless open).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Status snapshots the breaker at time now.
func (b *Breaker) Status(now time.Time) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{
		State: b.state, Samples: b.ringN, Failures: b.fails,
		Opens: b.opens, HalfOpens: b.halfOpens, Closes: b.closes,
	}
	if b.state == BreakerOpen && b.reopenAt.After(now) {
		st.RetryAfterMS = b.reopenAt.Sub(now).Milliseconds()
	}
	return st
}

// BreakerSet lazily materializes one breaker per workload class.
type BreakerSet struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[string]*Breaker
}

// NewBreakerSet builds an empty set.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, m: map[string]*Breaker{}}
}

// Get returns the class's breaker, creating it closed on first use.
func (s *BreakerSet) Get(class string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[class]
	if !ok {
		// The class name's hash salts the jitter stream.
		b = NewBreaker(s.cfg, seeded.Hash(class))
		s.m[class] = b
	}
	return b
}

// Status snapshots every breaker, keyed by class.
func (s *BreakerSet) Status(now time.Time) map[string]BreakerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]BreakerStatus, len(s.m))
	for class, b := range s.m {
		out[class] = b.Status(now)
	}
	return out
}
