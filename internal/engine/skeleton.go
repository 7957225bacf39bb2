package engine

import (
	"context"
	"encoding/json"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/store"
)

// The skeleton cache is the third level of the engine's lookup, after
// the result cache and the program tier. A program-tier miss does not
// necessarily mean a full greedy search: jobs that differ only in
// request-bound parameters (block capacities, back end, simulator,
// arguments) share a skeleton key, and a recorded formation decision
// trace under that key turns the compile into a cheap replay (see
// core.ReplayProgram). Skeleton
// artifacts live in the same content-addressed backing store as full
// results — distinct content hashes, same disk/peer/replication
// tiers — so a skeleton recorded by one shard warms the whole
// cluster.

// skeletonMemLimit bounds the in-memory decoded-trace layer (LRU
// eviction; the backing store keeps evicted entries).
const skeletonMemLimit = 256

// instLatWindow is how many recent instantiation latencies the engine
// keeps for its quantiles.
const instLatWindow = 256

// skeletonCache holds decoded formation traces in memory with
// write-through JSON persistence to the shared artifact store.
type skeletonCache struct {
	backing store.Store // nil: memory-only
	mem     *lru[*core.ProgramTrace]

	hits, misses, storeHits atomic.Int64
	puts, fallbacks         atomic.Int64
}

func newSkeletonCache(backing store.Store) *skeletonCache {
	return &skeletonCache{backing: backing, mem: newLRU[*core.ProgramTrace](skeletonMemLimit)}
}

// get returns the decoded trace for key, consulting memory and then
// the backing store (promoting store hits).
func (c *skeletonCache) get(ctx context.Context, key string) (*core.ProgramTrace, bool) {
	if tr, ok := c.mem.get(key); ok {
		c.hits.Add(1)
		return tr, true
	}
	if c.backing != nil {
		payload, ok, _ := c.backing.Get(ctx, key)
		if ok {
			tr := &core.ProgramTrace{}
			if json.Unmarshal(payload, tr) == nil && tr.Funcs != nil {
				c.mem.put(key, tr)
				c.hits.Add(1)
				c.storeHits.Add(1)
				return tr, true
			}
		}
	}
	c.misses.Add(1)
	return nil, false
}

// put stores the trace, writing through to the backing store.
func (c *skeletonCache) put(key string, tr *core.ProgramTrace) {
	c.mem.put(key, tr)
	c.puts.Add(1)
	if c.backing == nil {
		return
	}
	payload, err := json.Marshal(tr)
	if err != nil {
		return
	}
	_ = c.backing.Put(context.Background(), key, payload)
}

// SkeletonStats is the skeleton tier's observability snapshot:
// lookup counters plus instantiation-latency quantiles over the most
// recent skeleton-replayed compiles.
type SkeletonStats struct {
	// Hits counts compiles served by skeleton replay; Misses counts
	// compiles that recorded a fresh skeleton; StoreHits is the
	// subset of Hits whose trace came from the backing store rather
	// than memory.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	StoreHits int64 `json:"store_hits"`
	// Puts counts skeletons recorded and stored.
	Puts int64 `json:"puts"`
	// Fallbacks counts functions (not compiles) whose replay missed a
	// recorded precondition and reran greedy formation.
	Fallbacks int64 `json:"fallbacks"`
	// Instantiation-latency quantiles (compile wall time of skeleton-
	// replayed compiles, ms) over the retained ring; InstSamples is
	// the lifetime count of ring entries.
	InstP50MS   float64 `json:"inst_p50_ms"`
	InstP90MS   float64 `json:"inst_p90_ms"`
	InstP99MS   float64 `json:"inst_p99_ms"`
	InstSamples int64   `json:"inst_samples"`
}

// SkeletonStats snapshots the skeleton cache and instantiation ring.
func (e *Engine) SkeletonStats() SkeletonStats {
	var s SkeletonStats
	if e.skel == nil {
		return s
	}
	s.Hits = e.skel.hits.Load()
	s.Misses = e.skel.misses.Load()
	s.StoreHits = e.skel.storeHits.Load()
	s.Puts = e.skel.puts.Load()
	s.Fallbacks = e.skel.fallbacks.Load()
	ms := func(q float64) float64 {
		ns, _ := e.instLat.Quantile(q)
		return float64(ns) / 1e6
	}
	s.InstP50MS, s.InstP90MS, s.InstP99MS = ms(0.50), ms(0.90), ms(0.99)
	s.InstSamples = e.instLat.Count()
	return s
}

// skeletonEligible reports whether the job's compile runs hyperblock
// formation (the only phase skeletons capture). The BB baseline never
// forms, and custom-body jobs have no content identity.
func skeletonEligible(j Job) bool {
	if j.Fn != nil {
		return false
	}
	return j.Opts.Canonical().Ordering != compiler.OrderBB
}
