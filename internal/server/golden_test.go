package server

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// tripBackoffs opens b n times in a row and returns each open's full
// backoff in ms. With Backoff == MaxBackoff == 1024s the backoff is
// (512 + next%1024) s, so the sequence exposes the jitter stream.
func tripBackoffs(b *Breaker, n int) []int64 {
	now := time.Unix(0, 0)
	var out []int64
	for i := 0; i < n; i++ {
		if i > 0 {
			now = now.Add(time.Hour)
			b.Allow(now) // half-open probe
		}
		b.Record(now, true)
		out = append(out, b.Status(now).RetryAfterMS)
	}
	return out
}

// TestStreamGolden pins the breaker backoff jitter (per-breaker and
// per-class BreakerSet salts) and the overload Retry-After jitter for
// fixed seeds. The values were recorded before the splitmix64 stream
// and FNV-1a salt moved to internal/seeded, and must still match.
func TestStreamGolden(t *testing.T) {
	cfg := BreakerConfig{Window: 1, MinSamples: 1,
		Backoff: 1024 * time.Second, MaxBackoff: 1024 * time.Second, JitterSeed: 5}
	var got []string
	got = append(got, fmt.Sprint(tripBackoffs(NewBreaker(cfg, 0x1234), 8)))
	set := NewBreakerSet(cfg)
	for _, class := range []string{"", "L1.C0.Tn.Bn.S0", "L3.C2.Ty.By.S1"} {
		got = append(got, fmt.Sprint(class, tripBackoffs(set.Get(class), 3)))
	}
	o := newOverload(time.Millisecond, time.Millisecond, 42)
	var retry []int64
	for i := 0; i < 8; i++ {
		retry = append(retry, o.retryAfter(0, 1, 1024*time.Millisecond).Nanoseconds())
	}
	got = append(got, fmt.Sprint(retry))
	if g := strings.Join(got, "\n"); g != goldenServerStreams {
		t.Fatalf("server jitter streams drifted:\ngot:\n%s\nwant:\n%s", g, goldenServerStreams)
	}
}

const goldenServerStreams = `[1336000 1261000 1253000 1013000 1290000 1481000 1438000 1013000]
[1174000 529000 587000]
L1.C0.Tn.Bn.S0[567000 662000 1093000]
L3.C2.Ty.By.S1[1113000 711000 1391000]
[1139134323 1022200121 1062458758 1230124769 1221522007 835123592 918444401 1123370756]`
