package core

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// SetLivenessCheck makes fn see every block-local liveness answer that
// greedy formation uses, until the returned function is called.
func SetLivenessCheck(fn func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet)) (restore func()) {
	testHookLiveness = fn
	return func() { testHookLiveness = nil }
}

// SetLoopsCheck makes fn see every loop forest greedy formation reads
// (at each seed, and after each committed merge and split), until the
// returned function is called.
func SetLoopsCheck(fn func(f *ir.Function, lf *analysis.LoopForest)) (restore func()) {
	testHookLoops = fn
	return func() { testHookLoops = nil }
}
