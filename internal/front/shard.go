package front

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// latWindow is how many recent latencies each shard keeps; the hedge
// budget is a quantile over them, so "slow" is defined by what this
// shard has actually been doing lately, not a static guess.
const latWindow = 64

// shard is one backend hbserved node as the front tier sees it: its
// URL and its recent latency history (ns).
type shard struct {
	url string
	lat *metrics.Window

	requests atomic.Int64 // tries issued to this shard
	errors   atomic.Int64 // transport-level failures
}

func newShard(u string) *shard {
	return &shard{url: u, lat: metrics.NewWindow(latWindow)}
}

// hedgeBudget computes how long to wait on this shard before hedging:
// the hedgeQuantile of its recent latencies, clamped to
// [HedgeAfter, HedgeMax]. Until minHedgeSamples responses have been
// observed the floor is used unmodified — hedging aggressively off
// two data points would hedge on noise.
const (
	hedgeQuantile   = 0.95
	minHedgeSamples = 8
)

func (s *shard) hedgeBudget(cfg Config) time.Duration {
	ns, n := s.lat.Quantile(hedgeQuantile)
	q := time.Duration(ns)
	if n < minHedgeSamples || q < cfg.HedgeAfter {
		return cfg.HedgeAfter
	}
	if q > cfg.HedgeMax {
		return cfg.HedgeMax
	}
	return q
}

// shardSet is the routing set: the rendezvous names and their shard
// structs. ApplyView replaces the whole set; in-flight work keeps the
// set it started on. When a membership view is driving the set, urls
// holds only its serving members, and suspect flags deprioritize the
// members the failure detector doubts.
type shardSet struct {
	urls    []string // rendezvous node names, same order as shards
	shards  map[string]*shard
	suspect map[string]bool // nil when statically configured
}

func newShardSet(urls []string) *shardSet {
	set := &shardSet{shards: make(map[string]*shard, len(urls))}
	seen := map[string]bool{}
	for _, u := range urls {
		for len(u) > 0 && u[len(u)-1] == '/' {
			u = u[:len(u)-1]
		}
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		set.urls = append(set.urls, u)
		set.shards[u] = newShard(u)
	}
	return set
}

// state renders one member's detector state for /statusz.
func (set *shardSet) state(u string) string {
	switch {
	case set.suspect[u]:
		return "suspect"
	case set.suspect != nil:
		return "serving"
	}
	return "" // statically configured, no detector
}

// deprioritizeSuspects stably moves suspected members behind healthy
// ones in a rendezvous order, reporting whether anything moved.
func (set *shardSet) deprioritizeSuspects(order []string) ([]string, bool) {
	if len(set.suspect) == 0 {
		return order, false
	}
	healthy := make([]string, 0, len(order))
	var suspects []string
	moved := false
	for _, u := range order {
		if set.suspect[u] {
			suspects = append(suspects, u)
			continue
		}
		if len(suspects) > 0 {
			moved = true // a healthy shard overtakes a suspect
		}
		healthy = append(healthy, u)
	}
	if len(suspects) == 0 {
		return order, false
	}
	return append(healthy, suspects...), moved
}
