package policy

import (
	"math"

	"repro/internal/core"
	"repro/internal/ir"
)

// VLIW implements the Mahlke et al. path-based block-selection
// heuristic used by hyperblock compilers for statically scheduled
// machines. A prepass enumerates acyclic paths through the region
// rooted at the seed block, scores each path by
//
//	priority = freq × (bestHeight / height)^α × (bestSize / size)^β
//
// (frequent, short-dependence-height, low-resource paths first), and
// admits blocks path by path while the estimated region size fits the
// instruction budget. During expansion only admitted blocks are
// selected, in admission order. Back edges are never followed: the
// classical heuristic forms hyperblocks over acyclic regions, so it
// neither unrolls nor peels.
type VLIW struct {
	// MaxPathLen bounds path enumeration depth (default 12).
	MaxPathLen int
	// MaxPaths bounds the number of enumerated paths (default 256).
	MaxPaths int
	// HeightExp and SizeExp are the α and β priority exponents
	// (default 1 each).
	HeightExp float64
	SizeExp   float64

	admitted map[int]int // block ID -> admission rank
}

// Name implements core.Policy.
func (*VLIW) Name() string { return "vliw" }

type vliwPath struct {
	blocks []*ir.Block
	freq   float64
	height int
	size   int
}

// Prepare implements core.Policy: the path-enumeration prepass.
func (v *VLIW) Prepare(ctx *core.Context) {
	maxLen := v.MaxPathLen
	if maxLen == 0 {
		maxLen = 12
	}
	maxPaths := v.MaxPaths
	if maxPaths == 0 {
		maxPaths = 256
	}
	v.admitted = map[int]int{}

	// Paths share blocks, and enumeration never mutates them, so each
	// block's dependence height is computed once per prepass.
	heights := map[*ir.Block]int{}
	height := func(b *ir.Block) int {
		h, ok := heights[b]
		if !ok {
			h = depHeight(b)
			heights[b] = h
		}
		return h
	}

	var paths []*vliwPath
	var walk func(b *ir.Block, cur []*ir.Block, freq float64)
	seen := map[*ir.Block]bool{}
	walk = func(b *ir.Block, cur []*ir.Block, freq float64) {
		if len(paths) >= maxPaths {
			return
		}
		cur = append(cur, b)
		seen[b] = true
		defer func() { seen[b] = false }()

		terminal := len(cur) >= maxLen || b.HasCall()
		var nexts []*ir.Block
		if !terminal {
			for _, s := range b.Succs() {
				// Acyclic region: no revisits, no back edges.
				if seen[s] || ctx.Loops.IsBackEdge(b, s) {
					continue
				}
				nexts = append(nexts, s)
			}
		}
		if len(nexts) == 0 {
			p := &vliwPath{blocks: append([]*ir.Block(nil), cur...), freq: freq}
			for _, pb := range p.blocks {
				p.height += height(pb)
				p.size += len(pb.Instrs)
			}
			paths = append(paths, p)
			return
		}
		// Split frequency across successors by profile.
		var total int64
		for _, s := range nexts {
			total += edgeFreq(ctx, b, s) + 1
		}
		for _, s := range nexts {
			frac := float64(edgeFreq(ctx, b, s)+1) / float64(total)
			walk(s, cur, freq*frac)
		}
	}
	seedFreq := 1.0
	if ctx.Prof != nil {
		if f := ctx.Prof.BlockFreq(ctx.HB); f > 0 {
			seedFreq = float64(f)
		}
	}
	walk(ctx.HB, nil, seedFreq)
	if len(paths) == 0 {
		return
	}

	// Score paths.
	bestH, bestS := math.MaxInt64, math.MaxInt64
	for _, p := range paths {
		if p.height < bestH && p.height > 0 {
			bestH = p.height
		}
		if p.size < bestS && p.size > 0 {
			bestS = p.size
		}
	}
	alpha := v.HeightExp
	if alpha == 0 {
		alpha = 1
	}
	beta := v.SizeExp
	if beta == 0 {
		beta = 1
	}
	prio := func(p *vliwPath) float64 {
		pr := p.freq
		if p.height > 0 && bestH < math.MaxInt64 {
			pr *= math.Pow(float64(bestH)/float64(p.height), alpha)
		}
		if p.size > 0 && bestS < math.MaxInt64 {
			pr *= math.Pow(float64(bestS)/float64(p.size), beta)
		}
		return pr
	}
	// Insertion sort by descending priority (path counts are small).
	for i := 1; i < len(paths); i++ {
		for j := i; j > 0 && prio(paths[j-1]) < prio(paths[j]); j-- {
			paths[j-1], paths[j] = paths[j], paths[j-1]
		}
	}

	// Admit blocks path by path under the size budget.
	budget := ctx.Cons.MaxInstrs
	used := 0
	rank := 0
	inSet := map[int]bool{}
	for _, p := range paths {
		extra := 0
		for _, b := range p.blocks {
			if !inSet[b.ID] {
				extra += len(b.Instrs)
			}
		}
		if used > 0 && used+extra > budget {
			continue
		}
		for _, b := range p.blocks {
			if !inSet[b.ID] {
				inSet[b.ID] = true
				v.admitted[b.ID] = rank
				rank++
			}
		}
		used += extra
	}
}

// Select implements core.Policy: the admitted candidate with the
// lowest admission rank; unadmitted candidates stop expansion in
// that direction.
func (v *VLIW) Select(ctx *core.Context, cands []*ir.Block) int {
	best, bestRank := -1, math.MaxInt64
	for i, s := range cands {
		if s == ctx.HB {
			continue // acyclic heuristic: no unrolling
		}
		r, ok := v.admitted[s.ID]
		if ok && r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

func edgeFreq(ctx *core.Context, from, to *ir.Block) int64 {
	if ctx.Prof == nil {
		return 0
	}
	return ctx.Prof.EdgeFreq(from, to)
}

// depHeight estimates a block's dependence height: the length of its
// longest data-dependence chain, assuming unit latency.
func depHeight(b *ir.Block) int {
	depth := map[ir.Reg]int{}
	max := 0
	var buf []ir.Reg
	for _, in := range b.Instrs {
		d := 0
		buf = in.Uses(buf)
		for _, r := range buf {
			if depth[r] > d {
				d = depth[r]
			}
		}
		d++
		if dst := in.Def(); dst.Valid() {
			depth[dst] = d
		}
		if d > max {
			max = d
		}
	}
	return max
}
