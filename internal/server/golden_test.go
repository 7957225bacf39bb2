package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/store"
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

// TestStatuszFieldsInUse pins the /statusz paths that CI's smoke steps
// grep and bench/ decodes. A live snapshot of a shard with a peer
// tier, a membership node, and a sweeper that has passed over a dead
// peer must render every one of them.
func TestStatuszFieldsInUse(t *testing.T) {
	ctx := context.Background()
	const dead = "http://127.0.0.1:1"
	local := store.NewMem()
	peer := store.NewPeer("peers", engine.KeySchema, []string{dead}, nil)
	if err := local.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	sweeper := store.NewSweeper(local, local, peer)
	sweeper.SetView(func() store.SweepView { return store.SweepView{Dead: []string{dead}} })
	if _, err := sweeper.SweepOnce(ctx); err != nil {
		t.Fatal(err)
	}
	node, err := cluster.New(cluster.Config{Self: "http://127.0.0.1:2", Seeds: []string{dead}})
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewStoreCache(store.NewTiered(local, peer))
	defer cache.Close()
	s, err := New(Config{
		Engine:  engine.New(engine.Config{Workers: 1, Cache: cache}),
		Workers: 1,
		Sweeper: sweeper,
		Cluster: node,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	raw, err := json.Marshal(s.StatusSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"flights.flights",
		"anti_entropy.sweeps",
		"anti_entropy.pushes",
		"anti_entropy.sweeper_dead_peers_skipped",
		"membership.members[].addr",
		"membership.members[].state",
		"skeleton.hits",
		"skeleton.misses",
		"store.puts",
		"store.tiers[].name",
		"store.tiers[].hits",
		"queue_len",
		"shed",
	} {
		if !hasPath(doc, path) {
			t.Errorf("/statusz lacks %s:\n%s", path, raw)
		}
	}
}

// hasPath reports whether a decoded JSON document carries a dotted
// path; a "name[]" step requires a non-empty array whose every element
// carries the rest of the path.
func hasPath(doc any, path string) bool {
	m, ok := doc.(map[string]any)
	if !ok {
		return false
	}
	name, rest, _ := strings.Cut(path, ".")
	if arr, isArr := strings.CutSuffix(name, "[]"); isArr {
		elems, ok := m[arr].([]any)
		if !ok || len(elems) == 0 {
			return false
		}
		for _, e := range elems {
			if !hasPath(e, rest) {
				return false
			}
		}
		return true
	}
	v, ok := m[name]
	return ok && (rest == "" || hasPath(v, rest))
}
