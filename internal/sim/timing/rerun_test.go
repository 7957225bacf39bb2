package timing

import (
	"errors"
	"testing"
)

// TestNormalRunRecordsNoTrail: only the re-run after a watchdog trip
// records executed instructions.
func TestNormalRunRecordsNoTrail(t *testing.T) {
	m := New(compile(t, loopSrc), DefaultConfig())
	if _, err := m.Run("main", 50); err != nil {
		t.Fatal(err)
	}
	if len(m.recs) != 0 {
		t.Fatalf("a normal run recorded %d instructions", len(m.recs))
	}
}

// TestStuckReportOnReusedMachine: a watchdog trip on a machine that
// has run before cannot be replayed from a fresh machine, so its
// report lists no stalled instructions; every other field is filled.
func TestStuckReportOnReusedMachine(t *testing.T) {
	m := New(compile(t, loopSrc), DefaultConfig())
	if _, err := m.Run("main", 10); err != nil {
		t.Fatal(err)
	}
	seq := m.Stats.Blocks + 6
	m.Inject = commitDelayAt{seq: seq, delay: DefaultWatchdogGap + 1}
	_, err := m.Run("main", 50)
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StuckError", err)
	}
	rep := se.Report
	if rep.BlockSeq != seq || rep.Fn != "main" || rep.Block == "" || len(rep.InFlight) == 0 {
		t.Errorf("report does not describe the trip:\n%s", rep.Format())
	}
	if len(rep.Stalled) != 0 {
		t.Errorf("reused machine reports %d stalled instructions, want none:\n%s", len(rep.Stalled), rep.Format())
	}
}
