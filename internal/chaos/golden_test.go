package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim/timing"
)

// TestStreamGolden pins the first decision words of every injection
// point and the Plans sweep for fixed seeds. A chaos failure is filed
// by its seed alone, so these streams must never drift: the values
// were recorded before the mixer and site hash moved to
// internal/seeded, and must still match after.
func TestStreamGolden(t *testing.T) {
	p := Plan{Seed: 7}
	var got []string
	for i, salt := range []uint64{saltMispredict, saltFetch, saltCommit, saltHop} {
		s := timing.Site{Fn: "main", Block: fmt.Sprintf("b%d", i), Seq: int64(3 * i)}
		got = append(got, fmt.Sprintf("%x %x %x", p.roll(salt, s, -1), p.roll(salt, s, 0), p.roll(salt, s, 17)))
	}
	for _, q := range Plans(3, 16) {
		got = append(got, q.Name())
	}
	if g := strings.Join(got, "\n"); g != goldenPlanStreams {
		t.Fatalf("chaos streams drifted:\ngot:\n%s\nwant:\n%s", g, goldenPlanStreams)
	}
}

const goldenPlanStreams = `fbe2b45ab2dd6ea9 c9cc7bcfa19568ae acef5630df98779c
8a284d07a74c1fe0 39779e67e27a4c17 a7acf6afc87d583d
d71a8eab5cbfe53 b304fff74cda517 1b47918626b224f4
a7ebb4e4b75ca3e3 6cee52d4142b671c 156f954ae466e93a
plan(seed=3 mp=128 fs=0/0 cd=0/0 hj=0/0)
plan(seed=4 mp=0 fs=32/16 cd=0/0 hj=0/0)
plan(seed=5 mp=0 fs=0/0 cd=128/21 hj=0/0)
plan(seed=6 mp=0 fs=0/0 cd=0/0 hj=32/4)
plan(seed=7 mp=32 fs=64/12 cd=64/12 hj=128/3)
plan(seed=8 mp=128 fs=0/0 cd=0/0 hj=0/0)
plan(seed=9 mp=0 fs=256/21 cd=0/0 hj=0/0)
plan(seed=10 mp=0 fs=0/0 cd=8/21 hj=0/0)
plan(seed=11 mp=0 fs=0/0 cd=0/0 hj=8/3)
plan(seed=12 mp=32 fs=64/10 cd=64/10 hj=128/2)
plan(seed=13 mp=128 fs=0/0 cd=0/0 hj=0/0)
plan(seed=14 mp=0 fs=32/5 cd=0/0 hj=0/0)
plan(seed=15 mp=0 fs=0/0 cd=128/44 hj=0/0)
plan(seed=16 mp=0 fs=0/0 cd=0/0 hj=32/7)
plan(seed=17 mp=8 fs=16/9 cd=16/9 hj=32/2)
plan(seed=18 mp=16 fs=0/0 cd=0/0 hj=0/0)`
