package timing

import (
	"repro/internal/ir"
	"repro/internal/seeded"
)

// Exit outcome encoding for the predictor: a successor block ID, or
// retOutcome for a return exit.
const retOutcome = -2

// predictor is the next-block predictor: a last-outcome table indexed
// by a hash of (function, block, recent exit history). Blocks with a
// single static exit outcome are inherently predictable and bypass
// the table; calls are direct and returns are covered by a (perfect)
// return-address stack, matching the strong call/return prediction of
// real front ends.
//
// The table is an open-addressed linear-probe map storing the full
// 64-bit key, so lookups have exactly the same hit/miss behaviour as
// the map[uint64]int it replaces while staying allocation-free in
// steady state (the backing array grows only while new (fn, block,
// history) combinations are still being discovered).
type predictor struct {
	historyLen int
	history    uint64

	entries []predEntry
	live    int

	// Lookups and Mispredicts count dynamic multi-exit predictions.
	Lookups     int64
	Mispredicts int64
}

// predEntry is one open-addressing slot; used distinguishes an
// occupied slot from an empty one (keys may legitimately be zero).
type predEntry struct {
	key  uint64
	val  int32
	used bool
}

const predInitialSize = 256 // power of two

func newPredictor(historyLen int) *predictor {
	if historyLen <= 0 {
		historyLen = 6
	}
	return &predictor{historyLen: historyLen}
}

// fnv1a is the predictor's function-name hash component. Machines
// precompute it once per function (see funcMeta); the test-facing
// observe wrapper computes it on the fly.
func fnv1a(s string) uint64 { return seeded.Hash(s) }

// key combines the precomputed function hash, the block ID, and the
// current exit history. The value is identical to the original
// map-keyed implementation, so table contents (and therefore the
// predicted outcomes and mispredict counts) are bit-identical.
func (p *predictor) key(fnHash uint64, blockID int) uint64 {
	return fnHash ^
		uint64(uint32(blockID))*0x9e3779b97f4a7c15 ^
		p.history*0xbf58476d1ce4e5b9
}

// observe is the test-facing convenience wrapper: it hashes the
// function name and classifies the block on every call. The machine's
// hot path uses observeHashed with both cached (see funcMeta).
func (p *predictor) observe(fn string, b *ir.Block, actual int) bool {
	if _, single := singleExitOutcome(b); single {
		return true
	}
	return p.observeHashed(fnv1a(fn), b.ID, actual)
}

// observeHashed records one dynamic exit of a multi-exit block and
// reports whether it was predicted correctly. Single-outcome blocks
// must be filtered by the caller (they always predict correctly and
// must not touch the table, the history, or the lookup counters).
func (p *predictor) observeHashed(fnHash uint64, blockID, actual int) bool {
	p.Lookups++
	k := p.key(fnHash, blockID)
	pred, known := p.lookup(k)
	correct := known && pred == actual
	if !correct {
		p.Mispredicts++
	}
	p.insert(k, actual)
	p.history = (p.history<<4 | uint64(uint32(actual)&15)) & ((1 << (4 * uint(p.historyLen))) - 1)
	return correct
}

// lookup finds the exact key (linear probing).
func (p *predictor) lookup(k uint64) (int, bool) {
	if len(p.entries) == 0 {
		return 0, false
	}
	mask := uint64(len(p.entries) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		e := &p.entries[i]
		if !e.used {
			return 0, false
		}
		if e.key == k {
			return int(e.val), true
		}
	}
}

// insert stores or overwrites the key's last outcome, growing the
// table at 3/4 load so probe chains stay short.
func (p *predictor) insert(k uint64, val int) {
	if len(p.entries) == 0 {
		p.entries = make([]predEntry, predInitialSize)
	} else if 4*(p.live+1) > 3*len(p.entries) {
		p.grow()
	}
	mask := uint64(len(p.entries) - 1)
	for i := k & mask; ; i = (i + 1) & mask {
		e := &p.entries[i]
		if e.used && e.key != k {
			continue
		}
		if !e.used {
			p.live++
		}
		e.key, e.val, e.used = k, int32(val), true
		return
	}
}

func (p *predictor) grow() {
	old := p.entries
	p.entries = make([]predEntry, 2*len(old))
	mask := uint64(len(p.entries) - 1)
	for _, e := range old {
		if !e.used {
			continue
		}
		for i := e.key & mask; ; i = (i + 1) & mask {
			if !p.entries[i].used {
				p.entries[i] = e
				break
			}
		}
	}
}

// singleExitOutcome returns the block's only possible exit outcome
// when it has exactly one distinct outcome (one branch target and no
// return, or returns only).
func singleExitOutcome(b *ir.Block) (int, bool) {
	outcome := -1
	seen := false
	for _, in := range b.Instrs {
		var o int
		switch in.Op {
		case ir.OpRet:
			o = retOutcome
		case ir.OpBr:
			o = in.Target.ID
		default:
			continue
		}
		if !seen {
			outcome, seen = o, true
		} else if outcome != o {
			return -1, false
		}
	}
	return outcome, seen
}
