// Package profile collects and represents execution profiles: CFG
// edge frequencies, block execution counts, and loop trip-count
// histograms. Profiles drive block-selection policies (which
// successor is hottest), head-duplication peeling decisions (trip
// histograms), and front-end unroll factors.
package profile

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/sim/functional"
)

// Edge identifies a CFG edge by block IDs within one function.
type Edge struct {
	From int
	To   int
}

// FuncProfile holds dynamic counts for one function.
type FuncProfile struct {
	Name string
	// BlockCount maps block ID to execution count.
	BlockCount map[int]int64
	// EdgeCount maps CFG edges to traversal counts.
	EdgeCount map[Edge]int64
	// TripHist maps a loop header's block ID to a histogram of
	// completed trip counts (map from trip count to occurrences).
	TripHist map[int]map[int64]int64
	// Entries counts invocations of the function.
	Entries int64
}

// Profile is a whole-program profile keyed by function name.
type Profile struct {
	Funcs map[string]*FuncProfile

	// ser memoizes Serialized (content-addressed cache keys hash the
	// same preloaded profile on every request).
	ser     string
	serErr  error
	serOnce sync.Once
}

// Get returns the profile for a function (possibly an empty one).
func (p *Profile) Get(name string) *FuncProfile {
	if fp, ok := p.Funcs[name]; ok {
		return fp
	}
	return &FuncProfile{
		Name:       name,
		BlockCount: map[int]int64{},
		EdgeCount:  map[Edge]int64{},
		TripHist:   map[int]map[int64]int64{},
	}
}

// BlockFreq returns the execution count of b.
func (fp *FuncProfile) BlockFreq(b *ir.Block) int64 { return fp.BlockCount[b.ID] }

// EdgeFreq returns the traversal count of from->to.
func (fp *FuncProfile) EdgeFreq(from, to *ir.Block) int64 {
	return fp.EdgeCount[Edge{from.ID, to.ID}]
}

// AvgTrip returns the mean completed trip count for the loop headed
// at header, and whether any trips were observed.
func (fp *FuncProfile) AvgTrip(header *ir.Block) (float64, bool) {
	h := fp.TripHist[header.ID]
	if len(h) == 0 {
		return 0, false
	}
	var n, sum int64
	for trips, times := range h {
		n += times
		sum += trips * times
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n), true
}

// DominantTrip returns the most common completed trip count and the
// fraction of loop entries that had it.
func (fp *FuncProfile) DominantTrip(header *ir.Block) (trip int64, frac float64, ok bool) {
	h := fp.TripHist[header.ID]
	if len(h) == 0 {
		return 0, 0, false
	}
	var total, best int64
	bestTrip := int64(0)
	for t, times := range h {
		total += times
		if times > best || (times == best && t < bestTrip) {
			best = times
			bestTrip = t
		}
	}
	return bestTrip, float64(best) / float64(total), true
}

// Collect runs the program functionally under instrumentation and
// returns the gathered profile plus the run's result and error.
func Collect(prog *ir.Program, fn string, args ...int64) (*Profile, int64, error) {
	return CollectContext(context.Background(), prog, fn, args...)
}

// CollectContext is Collect with cooperative cancellation: the
// training run polls ctx between blocks, so a compile deadline also
// bounds profiling instead of letting a long training run overshoot
// it. The partial profile gathered before cancellation is returned
// alongside the wrapped ctx error.
func CollectContext(ctx context.Context, prog *ir.Program, fn string, args ...int64) (*Profile, int64, error) {
	p := &Profile{Funcs: map[string]*FuncProfile{}}
	get := func(f *ir.Function) *FuncProfile {
		fp, ok := p.Funcs[f.Name]
		if !ok {
			fp = &FuncProfile{
				Name:       f.Name,
				BlockCount: map[int]int64{},
				EdgeCount:  map[Edge]int64{},
				TripHist:   map[int]map[int64]int64{},
			}
			p.Funcs[f.Name] = fp
		}
		return fp
	}

	// Per-function loop forests for trip counting.
	forests := map[string]*analysis.LoopForest{}
	for _, f := range prog.OrderedFuncs() {
		forests[f.Name] = analysis.Loops(f)
	}
	// Live trip counters per (function, header ID). Calls can nest, so
	// counters are keyed per activation via a stack; for profile
	// purposes a single flat counter per header is adequate for
	// non-recursive loops and acceptable for recursive ones.
	type key struct {
		fn     string
		header int
	}
	cur := map[key]int64{}
	active := map[key]bool{}

	m := functional.New(prog)
	m.Hooks.OnBlock = func(f *ir.Function, b *ir.Block) {
		fp := get(f)
		fp.BlockCount[b.ID]++
		if b == f.Entry() {
			fp.Entries++
		}
	}
	m.Hooks.OnEdge = func(f *ir.Function, from, to *ir.Block) {
		fp := get(f)
		fp.EdgeCount[Edge{from.ID, to.ID}]++
		lf := forests[f.Name]
		if lf == nil {
			return
		}
		// Trip counting. A trip count is the number of back-edge
		// traversals per loop entry (completed iterations beyond the
		// first header visit): a while loop whose body runs 3 times
		// records trip 3.
		if l := lf.ByHeader(to); l != nil {
			k := key{f.Name, to.ID}
			if l.Contains(from) {
				cur[k]++ // back edge: one more iteration
			} else {
				// Loop entry from outside: finalize any stale count
				// and restart.
				if active[k] {
					addTrip(fp, to.ID, cur[k])
				}
				cur[k] = 0
				active[k] = true
			}
		}
		// Exiting edges: from inside loop L to outside finalizes L
		// (and any enclosing loops also being left).
		for l := lf.InnermostLoop(from); l != nil; l = l.Parent {
			if !l.Contains(to) {
				k := key{f.Name, l.Header.ID}
				if active[k] {
					addTrip(fp, l.Header.ID, cur[k])
					cur[k] = 0
					active[k] = false
				}
			}
		}
	}
	v, err := m.RunContext(ctx, fn, args...)
	// Finalize any counters still live (function returned from inside
	// a loop).
	for k, on := range active {
		if on {
			if fp, ok := p.Funcs[k.fn]; ok {
				addTrip(fp, k.header, cur[k])
			}
		}
	}
	return p, v, err
}

func addTrip(fp *FuncProfile, header int, trips int64) {
	h := fp.TripHist[header]
	if h == nil {
		h = map[int64]int64{}
		fp.TripHist[header] = h
	}
	h[trips]++
}

// String renders a compact human-readable profile summary.
func (p *Profile) String() string {
	var names []string
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fp := p.Funcs[n]
		fmt.Fprintf(&sb, "func %s: %d entries\n", n, fp.Entries)
		var ids []int
		for id := range fp.BlockCount {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&sb, "  b%d: %d\n", id, fp.BlockCount[id])
		}
	}
	return sb.String()
}
