// Package netchaos is the cluster-level sibling of internal/chaos:
// seeded, replayable fault schedules for the *distributed* failure
// domain — the wire between nodes and the disk under the artifact
// store — where internal/chaos covers the simulated machine. The same
// discipline applies: every injection decision is a pure hash of
// (seed, site, sequence number), so a cluster failure found by
// cmd/hbstorm reproduces from its seed alone, and the oracle demands
// the serving invariants (exactly one terminal response per request,
// no hash-invalid artifact ever served, convergence after the fault
// window) hold under every schedule.
//
// An Injector arms one Plan for one node. Its Transport wraps the
// node's outbound http.RoundTripper with connection faults (added
// latency, dropped and hung connections, asymmetric partitions, 5xx
// bursts) plus payload corruption (truncation, bit flips) on the
// artifact protocol only — artifact envelopes carry a SHA-256 the
// reader recomputes, so corrupting them exercises the integrity
// oracle, while /v1/jobs bodies have no such oracle and corrupting
// them would make the invariants unfalsifiable. Its Store wraps the
// node's local artifact tier with write failures (ENOSPC/EIO) and
// environmental read errors. Disarm stops all injection instantly,
// which is how a driver closes a fault window.
package netchaos

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/seeded"
)

// rateScale is the denominator of every per-site fault probability.
const rateScale = 1024

// Plan is one seeded, deterministic cluster fault schedule. Rates are
// per-1024 probabilities; a zero Plan injects nothing.
type Plan struct {
	Seed int64 `json:"seed"`
	// LatencyRate/MaxLatencyMS add uniform [1, max] ms to a request
	// before it is forwarded.
	LatencyRate  int   `json:"latency_rate,omitempty"`
	MaxLatencyMS int64 `json:"max_latency_ms,omitempty"`
	// DropRate fails the connection outright (a reset, in effect).
	DropRate int `json:"drop_rate,omitempty"`
	// HangRate holds the connection open, never answering, until the
	// caller's context gives up — the fault per-op timeouts exist for.
	HangRate int `json:"hang_rate,omitempty"`
	// PartitionRate blocks a directed (from, to) host pair for the
	// whole armed window. The decision hashes the ordered pair, so
	// partitions are asymmetric: A may lose its path to B while B
	// still reaches A.
	PartitionRate int `json:"partition_rate,omitempty"`
	// Err5xxRate answers with a synthesized 503 without forwarding
	// (an overloaded proxy or LB burst).
	Err5xxRate int `json:"err5xx_rate,omitempty"`
	// TruncateRate/BitFlipRate corrupt successful artifact-protocol
	// response bodies: truncation to half length, or one flipped bit.
	// Both must be caught by the reader's envelope verification.
	TruncateRate int `json:"truncate_rate,omitempty"`
	BitFlipRate  int `json:"bitflip_rate,omitempty"`
	// DiskWriteErrRate fails local store writes (alternating
	// ENOSPC/EIO); DiskReadErrRate fails reads environmentally (the
	// entry is intact on disk but this read did not see it).
	DiskWriteErrRate int `json:"disk_write_err_rate,omitempty"`
	// DiskReadErrRate fails local store reads with an I/O error.
	DiskReadErrRate int `json:"disk_read_err_rate,omitempty"`
}

// Active reports whether the plan can inject anything at all.
func (p Plan) Active() bool {
	return p.LatencyRate > 0 || p.DropRate > 0 || p.HangRate > 0 ||
		p.PartitionRate > 0 || p.Err5xxRate > 0 ||
		p.TruncateRate > 0 || p.BitFlipRate > 0 || p.DiskWriteErrRate > 0 ||
		p.DiskReadErrRate > 0
}

// Name renders the plan compactly for reports and logs.
func (p Plan) Name() string {
	return fmt.Sprintf("netplan(seed=%d lat=%d/%dms drop=%d hang=%d part=%d 5xx=%d trunc=%d flip=%d dw=%d dr=%d)",
		p.Seed, p.LatencyRate, p.MaxLatencyMS, p.DropRate, p.HangRate,
		p.PartitionRate, p.Err5xxRate, p.TruncateRate, p.BitFlipRate,
		p.DiskWriteErrRate, p.DiskReadErrRate)
}

// Salts separate the decision streams of the injection points, so a
// drop and a latency hit at the same site are independent coin flips.
const (
	saltLatency   uint64 = 0x71c947a96b4fd9e3
	saltDrop      uint64 = 0xe0f5a1c36d28b791
	saltHang      uint64 = 0x3b8cde41f6a07925
	saltPartition uint64 = 0x9d52b7e04c81fa36
	salt5xx       uint64 = 0x48a3f19e7d05c6b2
	saltTruncate  uint64 = 0xc67e024b9f3a815d
	saltBitFlip   uint64 = 0x2f91d8560eb4ca73
	saltDiskWrite uint64 = 0x84b6c3fa1957e028
	saltDiskRead  uint64 = 0x5ead70918c2f64b4
)

// roll derives the decision word for one injection point at one site.
// seq is the per-site call ordinal, so the Nth request to a site rolls
// the same value on every run at this seed.
func (p Plan) roll(salt uint64, site string, seq uint64) uint64 {
	h := seeded.Mix(uint64(p.Seed) ^ salt)
	h = seeded.Mix(h ^ seeded.Hash(site))
	return seeded.Mix(h ^ seq)
}

// hit reports whether a decision word fires at the given per-1024 rate.
func hit(h uint64, rate int) bool {
	return rate > 0 && h%rateScale < uint64(rate)
}

// Partitioned reports whether the directed from→to path is severed
// under this plan for the whole armed window. Exported so a driver can
// predict (and report) the partition matrix for a seed.
func (p Plan) Partitioned(from, to string) bool {
	return hit(p.roll(saltPartition, from+"\x00"+to, 0), p.PartitionRate)
}

// DefaultPlan is a moderate all-sites schedule: every fault family
// active at a few percent, latencies small enough that per-op timeouts
// and hedges stay well inside a test budget.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:        seed,
		LatencyRate: 160, MaxLatencyMS: 40,
		DropRate:         48,
		HangRate:         24,
		PartitionRate:    64,
		Err5xxRate:       48,
		TruncateRate:     96,
		BitFlipRate:      96,
		DiskWriteErrRate: 48,
		DiskReadErrRate:  32,
	}
}

// Plans derives a deterministic sweep of n schedules from a base
// seed: single-family plans at hashed intensities interleaved with
// all-families plans, mirroring chaos.Plans.
func Plans(seed int64, n int) []Plan {
	out := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		h := seeded.Mix(uint64(seed)*0x6c62272e07bb0142 + uint64(i))
		rate := 16 << (h % 5)       // 16..256 per 1024
		lat := int64(5 + (h>>8)%60) // 5..64 ms
		switch i % 5 {
		case 0:
			out = append(out, Plan{Seed: s, DropRate: rate, HangRate: rate / 2})
		case 1:
			out = append(out, Plan{Seed: s, LatencyRate: rate, MaxLatencyMS: lat})
		case 2:
			out = append(out, Plan{Seed: s, TruncateRate: rate, BitFlipRate: rate})
		case 3:
			out = append(out, Plan{Seed: s, PartitionRate: rate / 2, Err5xxRate: rate})
		default:
			out = append(out, Plan{
				Seed:        s,
				LatencyRate: rate, MaxLatencyMS: lat,
				DropRate: rate / 4, HangRate: rate / 8,
				PartitionRate: rate / 4, Err5xxRate: rate / 4,
				TruncateRate: rate / 2, BitFlipRate: rate / 2,
				DiskWriteErrRate: rate / 4, DiskReadErrRate: rate / 8,
			})
		}
	}
	return out
}

// Stats counts injected faults per family. All fields are monotonic
// since Injector creation; Disarm does not reset them.
type Stats struct {
	Latency    int64 `json:"latency"`
	Drops      int64 `json:"drops"`
	Hangs      int64 `json:"hangs"`
	Partitions int64 `json:"partitions"`
	Err5xx     int64 `json:"err5xx"`
	Truncates  int64 `json:"truncates"`
	BitFlips   int64 `json:"bitflips"`
	DiskWrite  int64 `json:"disk_write_errs"`
	DiskRead   int64 `json:"disk_read_errs"`
}

// Total sums every injected fault.
func (s Stats) Total() int64 {
	return s.Latency + s.Drops + s.Hangs + s.Partitions + s.Err5xx +
		s.Truncates + s.BitFlips + s.DiskWrite + s.DiskRead
}

// Injector arms one Plan for one node. Build one per node (From is
// the node's own name or address, the source side of asymmetric
// partitions), wrap the node's outbound client with Transport and its
// local store with Store, then Arm/Disarm to open and close fault
// windows. Safe for concurrent use.
type Injector struct {
	plan  Plan
	from  string
	names *Names
	armed atomic.Bool

	mu   sync.Mutex
	seqs map[string]*atomic.Uint64

	latency, drops, hangs, partitions atomic.Int64
	err5xx, truncates, bitflips       atomic.Int64
	diskWrite, diskRead               atomic.Int64
}

// New builds a disarmed injector for the node at addr.
func New(plan Plan, from string) *Injector {
	return &Injector{plan: plan, from: from, seqs: map[string]*atomic.Uint64{}}
}

// SetNames makes the injector hash every node it names, the target of
// each request and its own From, by its name in names. Call it before
// Arm.
func (in *Injector) SetNames(names *Names) { in.names = names }

// Names maps node addresses to the stable names fault decisions hash.
// A node that listens on an ephemeral port changes address from run to
// run; naming it keeps its fault sites and partition pairs, and so a
// seed's schedule, the same on every run. An unnamed address stands
// for itself. The zero value names nothing; safe for concurrent use.
type Names struct {
	mu sync.RWMutex
	m  map[string]string
}

// Set names the node at addr, a URL or host:port.
func (n *Names) Set(addr, name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.m == nil {
		n.m = map[string]string{}
	}
	n.m[trimHost(addr)] = name
}

// of returns addr's name, or addr without its scheme when n does not
// name it (or is nil).
func (n *Names) of(addr string) string {
	host := trimHost(addr)
	if n == nil {
		return host
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if name, ok := n.m[host]; ok {
		return name
	}
	return host
}

// Arm opens the fault window; Disarm closes it. Armed reports the
// current state.
func (in *Injector) Arm()        { in.armed.Store(true) }
func (in *Injector) Disarm()     { in.armed.Store(false) }
func (in *Injector) Armed() bool { return in.armed.Load() }

// Plan returns the armed schedule.
func (in *Injector) Plan() Plan { return in.plan }

// seq returns the next call ordinal for a site.
func (in *Injector) seq(site string) uint64 {
	in.mu.Lock()
	c, ok := in.seqs[site]
	if !ok {
		c = &atomic.Uint64{}
		in.seqs[site] = c
	}
	in.mu.Unlock()
	return c.Add(1) - 1
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Latency:    in.latency.Load(),
		Drops:      in.drops.Load(),
		Hangs:      in.hangs.Load(),
		Partitions: in.partitions.Load(),
		Err5xx:     in.err5xx.Load(),
		Truncates:  in.truncates.Load(),
		BitFlips:   in.bitflips.Load(),
		DiskWrite:  in.diskWrite.Load(),
		DiskRead:   in.diskRead.Load(),
	}
}

// trimHost strips a scheme prefix so partition decisions agree whether
// the caller names nodes by URL or by host:port.
func trimHost(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		return s[i+3:]
	}
	return s
}
