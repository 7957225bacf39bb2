package front

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestStreamGolden pins each shard breaker's first backoffs. The
// breaker's jitter stream is salted by a hash of the shard URL; the
// values were recorded before that hash moved to internal/seeded, and
// must still match.
func TestStreamGolden(t *testing.T) {
	cfg := server.BreakerConfig{Window: 1, MinSamples: 1,
		Backoff: 1024 * time.Second, MaxBackoff: 1024 * time.Second, JitterSeed: 3}
	urls := []string{"http://127.0.0.1:7001", "http://127.0.0.1:7002", "http://shard-c:80"}
	set := newShardSet(urls, cfg)
	var got []string
	for _, u := range urls {
		b := set.shards[u].breaker
		now := time.Unix(0, 0)
		var ms []int64
		for i := 0; i < 3; i++ {
			if i > 0 {
				now = now.Add(time.Hour)
				b.Allow(now)
			}
			b.Record(now, true)
			ms = append(ms, b.Status(now).RetryAfterMS)
		}
		got = append(got, fmt.Sprint(u, ms))
	}
	if g := strings.Join(got, "\n"); g != goldenShardJitter {
		t.Fatalf("shard breaker jitter drifted:\ngot:\n%s\nwant:\n%s", g, goldenShardJitter)
	}
}

const goldenShardJitter = `http://127.0.0.1:7001[1109000 809000 1231000]
http://127.0.0.1:7002[1528000 520000 530000]
http://shard-c:80[1369000 913000 1507000]`

// TestStatuszFieldsInUse pins the front's /statusz fields that CI's
// smoke steps grep and bench/ decodes.
func TestStatuszFieldsInUse(t *testing.T) {
	f, err := New(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(f.StatusSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"hedges", "failovers", "coalesced", "program_hits"} {
		if _, ok := doc[field]; !ok {
			t.Errorf("/statusz lacks %s:\n%s", field, raw)
		}
	}
}
