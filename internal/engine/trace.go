package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one job's trace record.
type Event struct {
	Index    int     `json:"index"`
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Sim      SimKind `json:"sim,omitempty"`
	Key      string  `json:"key,omitempty"`
	CacheHit bool    `json:"cache_hit"`
	// Coalesced marks a submission that waited on a compile another
	// submission started; ProgramHit one the program tier served
	// without compiling.
	Coalesced  bool   `json:"coalesced,omitempty"`
	ProgramHit bool   `json:"program_hit,omitempty"`
	Error      string `json:"error,omitempty"`
	// Retries counts re-executions after a panic, timeout, or
	// watchdog trip; a flaky cell that recovered has Retries > 0 with
	// no Error.
	Retries int `json:"retries,omitempty"`
	// Faults counts chaos faults injected into the run (Config.Chaos);
	// WatchdogTrips counts simulator-watchdog aborts across the job's
	// attempts; Quarantined marks a job the engine has quarantined
	// (this submission may have been refused outright).
	Faults        int64 `json:"faults,omitempty"`
	WatchdogTrips int   `json:"watchdog_trips,omitempty"`
	Quarantined   bool  `json:"quarantined,omitempty"`
	// Wall/Compile/SimMS are this run's per-phase wall times in
	// milliseconds (compile and sim are near zero on a cache hit).
	WallMS    float64 `json:"wall_ms"`
	CompileMS float64 `json:"compile_ms"`
	SimMS     float64 `json:"sim_ms"`
	// Headline measurements for quick scanning.
	Cycles int64  `json:"cycles,omitempty"`
	Blocks int64  `json:"blocks,omitempty"`
	MTUP   string `json:"mtup,omitempty"`
}

// Summary aggregates a run's events.
type Summary struct {
	Jobs        int     `json:"jobs"`
	Errors      int     `json:"errors"`
	Retries     int     `json:"retries"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// Faults sums injected chaos faults; WatchdogTrips and
	// Quarantined count watchdog aborts and quarantined jobs.
	Faults        int64 `json:"faults,omitempty"`
	WatchdogTrips int   `json:"watchdog_trips,omitempty"`
	Quarantined   int   `json:"quarantined,omitempty"`
	// WallMS sums per-job wall time (i.e. aggregate work, not
	// elapsed time — with J workers elapsed is roughly WallMS/J).
	WallMS    float64 `json:"wall_ms"`
	CompileMS float64 `json:"compile_ms"`
	SimMS     float64 `json:"sim_ms"`
}

// Tracer accumulates events across one or more Engine.Run calls. Safe
// for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	// live, when set, receives each event as one JSON line the moment
	// its job finishes (for tailing a long run). buf and enc are the
	// reused per-tracer encode state, guarded by mu: the event is
	// encoded into buf and flushed to live in the same critical
	// section that records it, so the whole per-job flush costs one
	// lock acquisition and no per-event allocation.
	live io.Writer
	buf  bytes.Buffer
	enc  *json.Encoder
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewStreamTracer returns a tracer that additionally writes each
// event to w as a JSON line (NDJSON) as soon as its job finishes.
// Writes to w are serialized by the tracer.
func NewStreamTracer(w io.Writer) *Tracer {
	t := &Tracer{live: w}
	t.enc = json.NewEncoder(&t.buf)
	return t
}

// observe appends the result's event. Called by each worker as its
// job finishes (so a hung cell is visible mid-run); Events() sorts by
// submission index, which keeps serialized traces deterministic.
func (t *Tracer) observe(r *Result) {
	m := r.Metrics
	ev := Event{
		Index:         r.Index,
		Workload:      r.Job.Workload,
		Config:        r.Job.Config,
		Sim:           r.Job.Sim,
		Key:           r.Key,
		CacheHit:      r.CacheHit,
		Coalesced:     r.Coalesced,
		ProgramHit:    r.ProgramHit,
		Retries:       r.Retries,
		Faults:        m.FaultsInjected,
		WatchdogTrips: r.WatchdogTrips,
		Quarantined:   r.Quarantined,
		WallMS:        float64(r.WallNS) / 1e6,
		CompileMS:     float64(m.CompileNS) / 1e6,
		SimMS:         float64(m.SimNS) / 1e6,
		Cycles:        m.Cycles,
		Blocks:        m.Blocks,
	}
	if r.CacheHit {
		// A hit did not pay the entry's recorded phase times.
		ev.CompileMS, ev.SimMS = 0, 0
	}
	if r.Err != nil {
		ev.Error = r.Err.Error()
	} else {
		ev.MTUP = fmt.Sprintf("%d/%d/%d/%d", m.Form.Merges, m.Form.TailDups, m.Form.Unrolls, m.Form.Peels)
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	if t.live != nil {
		t.buf.Reset()
		if err := t.enc.Encode(&ev); err == nil {
			t.live.Write(t.buf.Bytes())
		}
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by index.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// Summary aggregates the recorded events.
func (t *Tracer) Summary() Summary {
	var s Summary
	for _, ev := range t.Events() {
		s.Jobs++
		if ev.Error != "" {
			s.Errors++
		}
		s.Retries += ev.Retries
		s.Faults += ev.Faults
		s.WatchdogTrips += ev.WatchdogTrips
		if ev.Quarantined {
			s.Quarantined++
		}
		if ev.CacheHit {
			s.CacheHits++
		} else {
			s.CacheMisses++
		}
		s.WallMS += ev.WallMS
		s.CompileMS += ev.CompileMS
		s.SimMS += ev.SimMS
	}
	if s.Jobs > 0 {
		s.HitRate = float64(s.CacheHits) / float64(s.Jobs)
	}
	return s
}

// trace is the JSON document written by WriteJSON.
type trace struct {
	Summary Summary `json:"summary"`
	Jobs    []Event `json:"jobs"`
}

// WriteJSON emits the machine-readable trace: a summary object plus
// one event per job in submission order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(trace{Summary: t.Summary(), Jobs: t.Events()})
}

// Format renders the human-readable run summary.
func (s Summary) Format() string {
	return fmt.Sprintf(
		"engine: %d jobs (%d errors), cache %d hit / %d miss (%.0f%%), work %.1fs (compile %.1fs, sim %.1fs)",
		s.Jobs, s.Errors, s.CacheHits, s.CacheMisses, 100*s.HitRate,
		s.WallMS/1e3, s.CompileMS/1e3, s.SimMS/1e3)
}
