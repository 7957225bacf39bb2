package core

import (
	"repro/internal/ir"
	"repro/internal/profile"
)

// greedyPolicy is the default first-candidate (breadth-first worklist
// order) policy used when Config.Policy is nil.
type greedyPolicy struct{}

func (greedyPolicy) Name() string     { return "greedy" }
func (greedyPolicy) Prepare(*Context) {}
func (greedyPolicy) Select(_ *Context, cands []*ir.Block) int {
	if len(cands) == 0 {
		return -1
	}
	return 0
}

// ExpandBlock grows the hyperblock with the given seed block ID until
// no candidate successor can be merged (the paper's ExpandBlock,
// Figure 5). It returns the final block.
func (fo *Former) ExpandBlock(seedID int) *ir.Block {
	pol := fo.cfg.Policy
	if pol == nil {
		pol = greedyPolicy{}
	}
	hb := fo.f.BlockByID(seedID)
	if hb == nil {
		return nil
	}

	fo.live = nil // a new hyperblock: rebuild the liveness solver
	loops := fo.cache.Loops(fo.f)
	ctx := &Context{F: fo.f, HB: hb, Prof: fo.cfg.Prof, Loops: loops, Cons: fo.cfg.Cons}
	pol.Prepare(ctx)

	// tried marks candidates that failed for this hyperblock (the
	// paper removes failed candidates permanently); attemptCount
	// bounds repeated successful merges of the same block (repeated
	// peeling/unrolling) as a convergence backstop.
	tried := map[int]bool{}
	attemptCount := map[int]int{}
	merges := 0

	var candidates []*ir.Block
	addCandidates := func() {
		present := map[int]bool{}
		for _, c := range candidates {
			present[c.ID] = true
		}
		for _, s := range hb.Succs() {
			if tried[s.ID] || present[s.ID] {
				continue
			}
			if attemptCount[s.ID] >= fo.cfg.MaxRepeatPerCandidate {
				continue
			}
			candidates = append(candidates, s)
			present[s.ID] = true
		}
	}
	addCandidates()

	for len(candidates) > 0 && merges < fo.cfg.MaxMergesPerBlock {
		// Cooperative cancellation: a deadline hit mid-convergence
		// stops expanding here; the committed merges so far leave the
		// function valid (each commit is individually legal), and the
		// latched error propagates out of FormFunction.
		if fo.checkpoint() != nil {
			break
		}
		i := pol.Select(ctx, candidates)
		if i < 0 {
			break
		}
		s := candidates[i]
		candidates = append(candidates[:i], candidates[i+1:]...)
		attemptCount[s.ID]++

		if !fo.LegalMerge(hb, s, loops) {
			tried[s.ID] = true
			continue
		}
		if !fo.MergeBlocks(hb, s, loops) {
			// §9 extension: a rejected oversize candidate may be
			// split; its first half becomes a fresh candidate.
			if fo.cfg.SplitOversize && s != hb && !s.HasCall() &&
				len(s.Instrs) > fo.cfg.Cons.MaxInstrs/4 {
				if nb := fo.SplitOversizeCandidate(s); nb != nil {
					fo.record(Decision{Kind: DecSplit, Cand: s.ID})
					loops = fo.cache.Loops(fo.f)
					ctx.Loops = loops
					candidates = append(candidates, s)
					_ = nb
					continue
				}
			}
			tried[s.ID] = true
			continue
		}

		// Success: hb grew in place. Refresh the loop forest and drop
		// candidates the merge deleted.
		merges++
		loops = fo.cache.Loops(fo.f)
		ctx.Loops = loops
		fresh := candidates[:0]
		for _, c := range candidates {
			if fo.f.BlockByID(c.ID) != nil {
				fresh = append(fresh, c)
			}
		}
		candidates = fresh
		// The merged block's successors become candidates (the
		// paper's line 8).
		addCandidates()
	}
	if merges > 0 {
		hb.Hyper = true
	}
	return hb
}

// FormFunction runs convergent hyperblock formation over every region
// of f: blocks are visited in reverse postorder and each not-yet-
// consumed block seeds one ExpandBlock pass. It returns the resulting
// function (the input function must be considered consumed) and the
// accumulated statistics. The error is non-nil only when
// Config.Checkpoint aborted formation; the returned function is then
// the valid partial result (every committed merge was legal), which
// callers should discard when they propagate the cancellation.
func FormFunction(f *ir.Function, cfg Config) (*ir.Function, Stats, error) {
	nf, st, _, err := formFunction(f, cfg, false)
	return nf, st, err
}

// formFunction is FormFunction with optional decision recording.
//
// The seed scan is linear, not quadratic: a cursor into the current
// RPO advances past consumed blocks and only rewinds when the working
// function's mutation version changed, which is exactly when the
// cached RPO is recomputed. Only commits and splits change it: a
// rolled-back merge attempt restores the version it started from.
// The seed sequence is identical to rescanning from index 0 every
// iteration — an unchanged function has an unchanged RPO, and every
// block before the cursor is already done. The done set is a dense
// bitmap indexed by block ID (IDs are bounded by BlockIDBound and
// grow only when splits adopt new blocks).
func formFunction(f *ir.Function, cfg Config, record bool) (*ir.Function, Stats, *FuncTrace, error) {
	fo := NewFormer(f, cfg)
	if record {
		fo.rec = &traceRecorder{ft: &FuncTrace{Fingerprint: FingerprintFunction(f)}}
	}
	done := make([]bool, f.BlockIDBound())
	cur, curV := 0, fo.f.Version()
	for fo.checkpoint() == nil {
		if v := fo.f.Version(); v != curV {
			cur, curV = 0, v
		}
		rpo := fo.cache.RPO(fo.f)
		seed := -1
		for cur < len(rpo) {
			if id := rpo[cur].ID; id >= len(done) || !done[id] {
				seed = id
				break
			}
			cur++
		}
		if seed < 0 {
			break
		}
		if seed >= len(done) {
			nd := make([]bool, seed+1)
			copy(nd, done)
			done = nd
		}
		done[seed] = true
		fo.beginSeed(seed)
		fo.ExpandBlock(seed)
	}
	var ft *FuncTrace
	if record && fo.err == nil {
		ft = fo.rec.ft
	}
	return fo.f, fo.stats, ft, fo.err
}

// FormProgram applies FormFunction to every function of p, replacing
// them in place, and returns aggregate statistics. When prof is
// non-nil, each function's formation sees its own profile.
//
// Formation of each function is guarded: if it panics or yields IR
// that fails verification, that function alone is rolled back to its
// basic-block (pre-formation) form and reported in the returned
// degradations; every other function still forms normally. Degraded
// functions contribute nothing to the aggregate stats.
//
// A Config.Checkpoint abort is not a degradation: the first
// checkpoint error stops the walk and is returned, with the
// in-progress function rolled back to its pre-formation snapshot so
// the program is never left half-formed.
func FormProgram(p *ir.Program, cfg Config, prof *profile.Profile) (Stats, []Degradation, error) {
	st, deg, _, err := formProgram(p, cfg, prof, false)
	return st, deg, err
}

// FormProgramTrace is FormProgram with decision recording: it
// additionally returns a replayable skeleton of the run (see
// ReplayProgram). Functions that degraded get no trace entry; the
// trace is nil when formation was canceled.
func FormProgramTrace(p *ir.Program, cfg Config, prof *profile.Profile) (Stats, []Degradation, *ProgramTrace, error) {
	return formProgram(p, cfg, prof, true)
}

func formProgram(p *ir.Program, cfg Config, prof *profile.Profile, record bool) (Stats, []Degradation, *ProgramTrace, error) {
	var total Stats
	var degraded []Degradation
	var tr *ProgramTrace
	if record {
		tr = &ProgramTrace{Funcs: map[string]*FuncTrace{}}
	}
	for _, name := range p.FuncOrder {
		c := cfg
		if prof != nil {
			c.Prof = prof.Get(name)
		}
		var st Stats
		var ft *FuncTrace
		var cerr error
		fn := p.Funcs[name]
		nf, deg := GuardFunction(fn, "formation", func(f *ir.Function) *ir.Function {
			var formed *ir.Function
			formed, st, ft, cerr = formFunction(f, c, record)
			return formed
		})
		if cerr != nil {
			// Canceled mid-function: keep the untouched original so
			// callers that ignore the error still hold valid IR.
			return total, degraded, nil, cerr
		}
		if deg != nil {
			degraded = append(degraded, *deg)
			st = Stats{}
			ft = nil
		}
		if record && ft != nil {
			tr.Funcs[name] = ft
		}
		nf.Prog = p
		p.Funcs[name] = nf
		total.Add(st)
	}
	return total, degraded, tr, nil
}
