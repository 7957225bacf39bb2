package compiler

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/profile"
)

// UnrollPeelStats counts what the discrete unroll/peel phase did.
type UnrollPeelStats struct {
	Unrolled int // loop copies appended inside loops
	Peeled   int // iteration copies peeled before loops
}

// UnrollPeelOptions tune the discrete phase.
type UnrollPeelOptions struct {
	// SizeBudget caps body-size × copies (default 128, the block
	// budget — the unroller targets filling one TRIPS block).
	SizeBudget int
	// MaxUnroll and MaxPeel bound the factors (defaults 8 and 4).
	MaxUnroll int
	MaxPeel   int
	// PeelFraction is the dominant-trip-count frequency needed to
	// peel (default 0.5).
	PeelFraction float64
}

func (o UnrollPeelOptions) withDefaults() UnrollPeelOptions {
	if o.SizeBudget == 0 {
		o.SizeBudget = 128
	}
	if o.MaxUnroll == 0 {
		o.MaxUnroll = 8
	}
	if o.MaxPeel == 0 {
		o.MaxPeel = 4
	}
	if o.PeelFraction == 0 {
		o.PeelFraction = 0.5
	}
	return o
}

// UnrollPeelFunction is the discrete "UP" phase: profile-guided
// CFG-level while-loop unrolling and loop peeling by block
// duplication. Each duplicated iteration keeps its exit test, so the
// transformation is correct for any trip count; no predication is
// involved (that is if-conversion's job, whenever the phase ordering
// runs it).
func UnrollPeelFunction(f *ir.Function, prof *profile.FuncProfile, opts UnrollPeelOptions) UnrollPeelStats {
	opts = opts.withDefaults()
	var stats UnrollPeelStats

	// Snapshot the loops that exist before the phase, innermost
	// first; duplicating an outer loop clones its inner loops, and
	// those copies must not be transformed again.
	var worklist []int
	var collect func(l *analysis.Loop)
	collect = func(l *analysis.Loop) {
		for _, c := range l.Children {
			collect(c)
		}
		worklist = append(worklist, l.Header.ID)
	}
	for _, l := range analysis.Loops(f).Top {
		collect(l)
	}
	// The forest is recomputed after each transformation; loops are
	// re-identified by their (stable) header block IDs.
	for _, headerID := range worklist {
		header := f.BlockByID(headerID)
		if header == nil {
			continue
		}
		loops := analysis.Loops(f)
		l := loops.ByHeader(header)
		if l == nil {
			continue
		}
		stats = statsPlus(stats, transformLoop(f, l, prof, opts))
	}
	return stats
}

func statsPlus(a, b UnrollPeelStats) UnrollPeelStats {
	a.Unrolled += b.Unrolled
	a.Peeled += b.Peeled
	return a
}

func transformLoop(f *ir.Function, l *analysis.Loop, prof *profile.FuncProfile, opts UnrollPeelOptions) UnrollPeelStats {
	var stats UnrollPeelStats
	size := 0
	for _, b := range l.Blocks {
		size += len(b.Instrs)
	}
	if size == 0 || size > opts.SizeBudget {
		return stats
	}

	// Peeling: a dominant small trip count peels that many
	// iterations in front of the loop. Copies are chained: entries
	// reach the first peel, each peel's back edge reaches the next,
	// and the last falls into the loop proper.
	if prof != nil {
		if trip, frac, ok := prof.DominantTrip(l.Header); ok &&
			trip >= 1 && int(trip) <= opts.MaxPeel && frac >= opts.PeelFraction &&
			size*int(trip) <= opts.SizeBudget {
			var prev map[*ir.Block]*ir.Block
			for i := 0; i < int(trip); i++ {
				m := cloneLoop(f, l, fmt.Sprintf("p%d", i))
				if i == 0 {
					// Redirect outside entries to the first peel.
					for _, b := range f.Blocks {
						if l.Contains(b) || clonedOf(m, b) {
							continue
						}
						b.RetargetBranches(l.Header, m[l.Header])
					}
				} else {
					// The previous peel's back edges reach this one.
					for _, latch := range l.Latches {
						prev[latch].RetargetBranches(l.Header, m[l.Header])
					}
				}
				// This peel's back edges fall into the loop proper
				// (rewired by the next peel, if any).
				for _, b := range l.Blocks {
					m[b].RetargetBranches(m[l.Header], l.Header)
				}
				prev = m
				stats.Peeled++
			}
		}
	}

	// Unrolling: fill the size budget with body copies; the
	// profile's average trip bounds the useful factor. Copies are
	// chained: original latches reach copy 1, copy i's latches reach
	// copy i+1, the last copy's latches close the loop at the
	// original header.
	factor := opts.SizeBudget / size
	if factor > opts.MaxUnroll {
		factor = opts.MaxUnroll
	}
	if prof != nil {
		if avg, ok := prof.AvgTrip(l.Header); ok {
			if int(avg) < factor {
				factor = int(avg)
			}
		} else {
			factor = 0 // never entered: don't bother
		}
	}
	prevLatches := append([]*ir.Block(nil), l.Latches...)
	for i := 1; i < factor; i++ {
		m := cloneLoop(f, l, fmt.Sprintf("u%d", i))
		for _, latch := range prevLatches {
			latch.RetargetBranches(l.Header, m[l.Header])
		}
		for _, b := range l.Blocks {
			m[b].RetargetBranches(m[l.Header], l.Header)
		}
		prevLatches = prevLatches[:0]
		for _, latch := range l.Latches {
			prevLatches = append(prevLatches, m[latch])
		}
		stats.Unrolled++
	}
	f.RemoveUnreachable()
	return stats
}

// cloneLoop duplicates the loop body; internal edges are remapped to
// the clones, external edges (loop exits) keep their targets, and
// edges to the header are remapped to the cloned header (the caller
// rewires back edges as needed).
func cloneLoop(f *ir.Function, l *analysis.Loop, tag string) map[*ir.Block]*ir.Block {
	m := map[*ir.Block]*ir.Block{}
	// Walk f.Blocks rather than l.Blocks so clones are adopted (and
	// thus laid out) in function order: block layout feeds cycle
	// counts.
	members := make([]*ir.Block, 0, len(l.Blocks))
	for _, b := range f.Blocks {
		if l.Contains(b) {
			members = append(members, b)
		}
	}
	for _, b := range members {
		nb := b.Clone(fmt.Sprintf("%s.%s", b.Name, tag))
		f.AdoptBlock(nb)
		m[b] = nb
	}
	for _, nb := range m {
		ir.RemapTargets(nb, m)
	}
	return m
}

func clonedOf(m map[*ir.Block]*ir.Block, b *ir.Block) bool {
	for _, nb := range m {
		if nb == b {
			return true
		}
	}
	return false
}

// UnrollPeelProgram applies the discrete phase to every function.
//
// Each function is guarded: a panic or post-phase verification
// failure rolls that function back to its pre-phase form (reported in
// the returned degradations) without aborting the rest of the
// program. Degraded functions contribute nothing to the aggregate
// stats.
func UnrollPeelProgram(p *ir.Program, prof *profile.Profile, opts UnrollPeelOptions) (UnrollPeelStats, []core.Degradation) {
	var total UnrollPeelStats
	var degraded []core.Degradation
	for _, name := range p.FuncOrder {
		var fp *profile.FuncProfile
		if prof != nil {
			fp = prof.Get(name)
		}
		var st UnrollPeelStats
		nf, deg := core.GuardFunction(p.Funcs[name], "unrollpeel", func(f *ir.Function) *ir.Function {
			st = UnrollPeelFunction(f, fp, opts)
			return f
		})
		if deg != nil {
			degraded = append(degraded, *deg)
			st = UnrollPeelStats{}
		}
		nf.Prog = p
		p.Funcs[name] = nf
		total = statsPlus(total, st)
	}
	return total, degraded
}
