package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// TestStreamGolden pins the overload Retry-After jitter for a fixed
// seed. The values were recorded before the splitmix64 stream moved to
// internal/seeded, and must still match.
func TestStreamGolden(t *testing.T) {
	o := newOverload(42)
	var retry []int64
	for i := 0; i < 8; i++ {
		retry = append(retry, o.retryAfter(0, 1, 1024*time.Millisecond).Nanoseconds())
	}
	if g := fmt.Sprint(retry); g != goldenRetryAfter {
		t.Fatalf("Retry-After jitter stream drifted:\ngot:  %s\nwant: %s", g, goldenRetryAfter)
	}
}

const goldenRetryAfter = `[1139134323 1022200121 1062458758 1230124769 1221522007 835123592 918444401 1123370756]`

// TestStatuszFieldsInUse pins the /statusz paths that CI's smoke steps
// grep and bench/ decodes. A live snapshot of a shard with a peer
// tier must render every one of them.
func TestStatuszFieldsInUse(t *testing.T) {
	const dead = "http://127.0.0.1:1"
	peer := store.NewPeer("peers", engine.KeySchema, []string{dead}, nil, 0)
	cache := engine.NewStoreCache(store.NewTiered(store.NewMem(), peer))
	defer cache.Close()
	s, err := New(Config{
		Engine:  engine.New(engine.Config{Workers: 1, Cache: cache}),
		Workers: 1,
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
		"program.hits",
		"program.misses",
		"program.entries",
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
	var causes []string
	for c := range s.StatusSnapshot().Shed {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	if got, want := strings.Join(causes, " "), "draining heap_watermark queue_age queue_full"; got != want {
		t.Errorf("/statusz shed causes = %s, want %s", got, want)
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
