package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// repResult is what one child process measured in one repetition.
type repResult struct {
	// Metrics holds every value by name; Bases holds the "num/den"
	// counts behind each ratio.
	Metrics map[string]float64 `json:"metrics"`
	Bases   map[string]string  `json:"bases,omitempty"`
	// Self is each layer's self time in seconds (traced runs only).
	Self map[string]float64 `json:"self_s,omitempty"`
	// Setup holds set-up times the child measured itself (serving
	// targets); the parent times batch set-up from outside.
	Setup []float64 `json:"setup_s,omitempty"`
	// Attempted counts operations; Failed those that failed in any way
	// (error, non-ok class, lost, late or wrong); Mismatches describes
	// the wrong outputs, which fail the whole run.
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatches []string `json:"mismatches,omitempty"`
	Notes      []string `json:"notes,omitempty"`
	// Crashes holds the first panic line of each target that died
	// before it was stopped.
	Crashes []string `json:"crashes,omitempty"`
}

// maxNotes bounds the failure descriptions a repetition keeps.
const maxNotes = 10

func newRepResult() *repResult {
	return &repResult{Metrics: map[string]float64{}, Bases: map[string]string{}}
}

func (r *repResult) set(name string, v float64) { r.Metrics[name] = v }

func (r *repResult) setRatio(name string, num, den int) {
	r.Metrics[name], r.Bases[name] = ratio(num, den)
}

func (r *repResult) fail() { r.Failed++ }

func (r *repResult) note(format string, args ...any) {
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// mismatch records a wrong output: a failed operation that also fails
// the run.
func (r *repResult) mismatch(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < maxNotes {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// latencies sets name_p50_ms and name_p95_ms over the samples (ms),
// noting the sample count and flagging a p95 too few samples lie
// beyond to describe the tail.
func (r *repResult) latencies(name string, ms []float64) {
	s := sorted(ms)
	r.set(name+"_p50_ms", percentile(s, 50))
	r.set(name+"_p95_ms", percentile(s, 95))
	base := fmt.Sprintf("n=%d, %d beyond", len(s), beyond(len(s), 95))
	if tailPercentile(len(s)) < 95 {
		base += fmt.Sprintf("; fewer than %d, not a tail", minBeyond)
	}
	r.Bases[name+"_p95_ms"] = base
}

// batchE2E sets the end-to-end metrics of a batch repetition from the
// job set's wall time and each job's: jobs per second, and per-job
// latency (the engine's wall time for the job, what a table cell costs).
func (r *repResult) batchE2E(wall float64, jobMS []float64) {
	r.set("wall_s", wall)
	r.set("throughput_rps", float64(len(jobMS))/wall)
	r.latencies("latency", jobMS)
}

// layers are the layers a traced repetition reports a self-time share
// for. The batch workloads split the compiler into its modules; a
// served reply reports its compile time as one "compile" figure.
var layers = []string{
	"lang", "opt", "profile", "core", "compiler", "ir", "functional", "timing",
	"engine", "compile", "http", "load", "bench",
}

// addTrace folds a traced repetition's spans into self times, each
// layer's share of the traced time and the unclaimed share.
func (r *repResult) addTrace(spans []span) {
	self, rootS := selfTimes(spans)
	r.Self = self
	if rootS == 0 {
		return
	}
	r.set("trace.unclaimed_pct", 100*self[rootLayer]/rootS)
	for _, l := range layers {
		r.set("self."+l+"_pct", 100*self[l]/rootS)
	}
}

// noServingLayers sets the serving-only counters of a batch
// repetition, which has no targets, to zero.
func (r *repResult) noServingLayers() {
	for _, name := range []string{
		"front.hedges", "front.coalesced", "front.failovers",
		"server.shed", "server.queue_len_max", "target_crashes",
	} {
		r.set(name, 0)
	}
}

// obs is one job's or request's engine-side record.
type obs struct {
	WallMS, CompileMS, SimMS float64
	CacheHit, Coalesced      bool
	Retries                  int
	Timing                   bool // ran the timing simulator
	// Key identifies the distinct work (its cache key); Form is the
	// formation counters of its compile.
	Key  string
	Form core.Stats
}

// engineSummary aggregates the engine layer over one repetition.
type engineSummary struct {
	obs []obs
	// skelHits counts compiles that replayed a skeleton, greedy those
	// that ran the full formation search, skelKeys the distinct
	// skeleton keys among the jobs that form hyperblocks.
	skelHits, greedy, skelKeys int
	storePuts, peerHits        int
}

// addTo sets the engine-layer metrics.
func (s engineSummary) addTo(r *repResult) {
	var compileS, simS, selfS float64
	var walls, compiles, sims []float64
	hits, coalesced, retries := 0, 0, 0
	seen := map[string]bool{}
	var form core.Stats
	for _, o := range s.obs {
		walls = append(walls, o.WallMS)
		retries += o.Retries
		if o.Coalesced {
			coalesced++
		}
		if o.Key != "" && !seen[o.Key] {
			seen[o.Key] = true
			form.Add(o.Form)
		}
		if o.CacheHit {
			hits++
			selfS += o.WallMS / 1e3
			continue
		}
		compileS += o.CompileMS / 1e3
		simS += o.SimMS / 1e3
		selfS += max(o.WallMS-o.CompileMS-o.SimMS, 0) / 1e3
		compiles = append(compiles, o.CompileMS)
		if o.Timing {
			sims = append(sims, o.SimMS)
		}
	}
	r.set("engine.compile_s", compileS)
	r.set("engine.sim_s", simS)
	r.set("engine.self_s", selfS)
	r.latencies("engine.wall", walls)
	r.set("engine.compile_p95_ms", percentile(sorted(compiles), 95))
	r.set("timing.sim_p50_ms", percentile(sorted(sims), 50))
	r.setRatio("engine.cache_hit_ratio", hits, len(s.obs))
	r.setRatio("engine.coalesced_ratio", coalesced, len(s.obs))
	r.setRatio("engine.skeleton_hit_ratio", s.skelHits, s.skelHits+s.greedy)
	r.setRatio("engine.greedy_per_skeleton", s.greedy, s.skelKeys)
	r.set("engine.retries", float64(retries))
	r.set("store.puts", float64(s.storePuts))
	r.set("store.peer_hits", float64(s.peerHits))
	r.set("core.merges", float64(form.Merges))
	r.set("core.tail_dups", float64(form.TailDups))
	r.set("core.unrolls", float64(form.Unrolls))
	r.set("core.peels", float64(form.Peels))
}

// parseMTUP reads the engine trace's "m/t/u/p" formation summary.
func parseMTUP(s string) core.Stats {
	var st core.Stats
	// A failed job's event has no summary; it counts as zero.
	_, _ = fmt.Sscanf(s, "%d/%d/%d/%d", &st.Merges, &st.TailDups, &st.Unrolls, &st.Peels)
	return st
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch name {
	case "engine.greedy_per_skeleton":
		return "compiles/key"
	case "timing.mcycles_per_s":
		return "Mcycles/s"
	}
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_s", "s"}, {"_pct", "%"}, {"_ratio", "ratio"},
		{"_mb", "MB"}, {"_rps", "req/s"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
