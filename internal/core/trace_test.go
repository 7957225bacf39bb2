package core

import (
	"encoding/json"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/trips"
)

// tracePrograms returns a spread of generated programs that exercise
// plain merges, tail duplication, peeling, unrolling, and (under
// tight constraints) rejects and oversize splits.
func tracePrograms(t *testing.T) []*ir.Program {
	t.Helper()
	var ps []*ir.Program
	for _, code := range [][]byte{
		{0, 1, 2, 0, 1, 2, 3, 1, 2, 0, 4, 2, 0, 1, 5, 3},
		{3, 1, 0, 6, 2, 2, 1, 9, 1, 0, 3, 3, 0, 2, 2, 6, 1, 1, 4, 0},
		{7, 5, 3, 1, 2, 4, 6, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 3, 5, 7, 2, 4},
	} {
		p, err := lang.Compile(genProgram(code))
		if err != nil {
			t.Fatalf("gen compile: %v", err)
		}
		ps = append(ps, p)
	}
	return ps
}

func traceConfigs() []Config {
	return []Config{
		{Cons: trips.Default(), IterOpt: true, HeadDup: true},
		{Cons: trips.Default(), IterOpt: false, HeadDup: false},
		{Cons: trips.Constraints{MaxInstrs: 24, MaxMemOps: 8, RegBanks: 4,
			MaxReadsPerBank: 8, MaxWritesPerBank: 8, FanoutFactor: 4},
			IterOpt: true, HeadDup: true, SplitOversize: true},
	}
}

// Recording must not perturb formation, and replaying the recorded
// trace on fresh clones must reproduce the recorded run exactly —
// twice, byte-identical IR dumps and equal statistics, with zero
// fallbacks.
func TestTraceReplayDeterministic(t *testing.T) {
	for pi, base := range tracePrograms(t) {
		for ci, cfg := range traceConfigs() {
			greedy := ir.CloneProgram(base)
			gst, gdeg, err := FormProgram(greedy, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(gdeg) > 0 {
				t.Fatalf("p%d c%d: greedy degraded: %v", pi, ci, gdeg)
			}
			want := ir.FormatProgram(greedy)

			rec := ir.CloneProgram(base)
			rst, _, tr, err := FormProgramTrace(rec, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr == nil {
				t.Fatalf("p%d c%d: no trace recorded", pi, ci)
			}
			if got := ir.FormatProgram(rec); got != want {
				t.Fatalf("p%d c%d: recording changed formation output", pi, ci)
			}
			if rst != gst {
				t.Fatalf("p%d c%d: recording changed stats: %+v vs %+v", pi, ci, rst, gst)
			}

			// The trace must survive a JSON round trip (it is cached as
			// a store artifact).
			raw, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			var tr2, legacy ProgramTrace
			if err := json.Unmarshal(raw, &tr2); err != nil {
				t.Fatal(err)
			}
			// Merges recorded before decisions carried their live-out
			// sets and shape replay through greedy's liveness solver.
			if err := json.Unmarshal(raw, &legacy); err != nil {
				t.Fatal(err)
			}
			for _, ft := range legacy.Funcs {
				for i := range ft.Seeds {
					for j := range ft.Seeds[i].Decisions {
						if d := &ft.Seeds[i].Decisions[j]; d.Kind == DecMerge {
							d.Shape, d.Out1, d.Out2 = nil, nil, nil
						}
					}
				}
			}

			for round, trace := range []*ProgramTrace{tr, &tr2, &legacy} {
				rep := ir.CloneProgram(base)
				pst, pdeg, rs, err := ReplayProgram(rep, cfg, nil, trace)
				if err != nil {
					t.Fatal(err)
				}
				if len(pdeg) > 0 {
					t.Fatalf("p%d c%d r%d: replay degraded: %v", pi, ci, round, pdeg)
				}
				if rs.Fallbacks != 0 {
					t.Fatalf("p%d c%d r%d: unexpected fallbacks: %+v", pi, ci, round, rs)
				}
				if got := ir.FormatProgram(rep); got != want {
					t.Fatalf("p%d c%d r%d: replay IR differs from greedy:\n--- want\n%s\n--- got\n%s",
						pi, ci, round, want, got)
				}
				if pst != gst {
					t.Fatalf("p%d c%d r%d: replay stats %+v, greedy %+v", pi, ci, round, pst, gst)
				}
			}
		}
	}
}

// A trace replayed under different concrete parameters must detect
// the precondition miss, count a fallback, and still produce exactly
// what a full greedy run under the new parameters produces — no
// degradation, no drift.
func TestTraceReplayFallbackOnParameterChange(t *testing.T) {
	recCfg := Config{Cons: trips.Default(), IterOpt: true, HeadDup: true}
	tight := recCfg
	tight.Cons = trips.Constraints{MaxInstrs: 10, MaxMemOps: 4, RegBanks: 4,
		MaxReadsPerBank: 2, MaxWritesPerBank: 2, FanoutFactor: 4}

	fellSomewhere := false
	for pi, base := range tracePrograms(t) {
		rec := ir.CloneProgram(base)
		_, _, tr, err := FormProgramTrace(rec, recCfg, nil)
		if err != nil {
			t.Fatal(err)
		}

		greedy := ir.CloneProgram(base)
		gst, gdeg, err := FormProgram(greedy, tight, nil)
		if err != nil {
			t.Fatal(err)
		}

		rep := ir.CloneProgram(base)
		pst, pdeg, rs, err := ReplayProgram(rep, tight, nil, tr)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Fallbacks > 0 {
			fellSomewhere = true
		}
		if len(pdeg) != len(gdeg) {
			t.Fatalf("p%d: replay degradations %v, greedy %v", pi, pdeg, gdeg)
		}
		if got, want := ir.FormatProgram(rep), ir.FormatProgram(greedy); got != want {
			t.Fatalf("p%d: fallback IR differs from greedy under tight constraints", pi)
		}
		if pst != gst {
			t.Fatalf("p%d: fallback stats %+v, greedy %+v", pi, pst, gst)
		}
	}
	if !fellSomewhere {
		t.Fatal("tight constraints never forced a fallback; test is vacuous")
	}
}

// A stale trace (fingerprint mismatch) must not be replayed at all.
func TestTraceReplayRejectsStaleFingerprint(t *testing.T) {
	cfg := Config{Cons: trips.Default(), IterOpt: true, HeadDup: true}
	base := tracePrograms(t)[0]
	rec := ir.CloneProgram(base)
	_, _, tr, err := FormProgramTrace(rec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ft := range tr.Funcs {
		ft.Fingerprint ^= 0xdeadbeef
	}
	greedy := ir.CloneProgram(base)
	if _, _, err := FormProgram(greedy, cfg, nil); err != nil {
		t.Fatal(err)
	}
	rep := ir.CloneProgram(base)
	_, _, rs, err := ReplayProgram(rep, cfg, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 0 {
		t.Fatalf("replayed %d functions with corrupted fingerprints", rs.Replayed)
	}
	if got, want := ir.FormatProgram(rep), ir.FormatProgram(greedy); got != want {
		t.Fatal("fingerprint-miss fallback diverged from greedy")
	}
}
