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
