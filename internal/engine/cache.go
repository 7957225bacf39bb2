package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/memo"
	"repro/internal/regalloc"
	"repro/internal/sim/timing"
	"repro/internal/store"
	"repro/internal/trips"
)

// KeySchema versions the cache-key layout; bump it whenever the
// payload below or the semantics of a hashed field change, so stale
// entries from older builds can never be returned — locally or from a
// peer store (the artifact protocol refuses cross-schema exchanges
// outright). Schema 4: the payload is factored into skeleton
// (parameter-independent) vs. instantiation (request-bound) field
// groups, and the store now also holds formation-skeleton artifacts
// addressed by the skeleton group alone.
const KeySchema = 4

// skeletonFields are the inputs that determine the formation decision
// path and the pre-formation IR it runs on — everything a recorded
// decision trace is valid for, and nothing the trace is symbolic in.
// The request-bound block capacities (MaxInstrs, MaxMemOps, per-bank
// read/write budgets) are deliberately absent: replay re-checks each
// recorded precondition against them. FanoutFactor stays, because
// recorded block shapes bake in its fanout estimate; and when a
// custom selection policy is configured, the full constraints join
// the key (policies see Cons in their Context, so their choices may
// depend on any of it).
type skeletonFields struct {
	Source      string                     `json:"source"`
	Ordering    compiler.Ordering          `json:"ordering"`
	Policy      string                     `json:"policy"`
	PolicyOpts  json.RawMessage            `json:"policy_opts,omitempty"`
	PolicyCons  *trips.Constraints         `json:"policy_cons,omitempty"`
	ProfileFn   string                     `json:"profile_fn"`
	ProfileArgs []int64                    `json:"profile_args"`
	Profile     string                     `json:"profile,omitempty"`
	FrontUnroll int                        `json:"front_unroll"`
	UnrollPeel  compiler.UnrollPeelOptions `json:"unroll_peel"`
	CoreTweaks  compiler.CoreTweaks        `json:"core_tweaks"`
	Fanout      int                        `json:"fanout"`
}

// compileFields are the request-bound compile inputs: concrete block
// capacities and the back end. With the skeleton fields they determine
// the compiled program, so they key the program tier.
type compileFields struct {
	Cons        trips.Constraints `json:"cons"`
	RegAlloc    bool              `json:"regalloc"`
	RegAllocOps regalloc.Options  `json:"regalloc_opts"`
	VerifyEach  bool              `json:"verify_each_phase"`
}

// instantiationFields are the request-bound inputs: the compile half
// plus the simulation. They join the full result key but not the
// skeleton key. compileFields is embedded, so its fields serialize
// inline and the full key's bytes match the schema-4 layout.
type instantiationFields struct {
	compileFields
	Sim       SimKind        `json:"sim"`
	SimConfig *timing.Config `json:"sim_config,omitempty"`
	Entry     string         `json:"entry"`
	Args      []int64        `json:"args"`
}

// keyPayload is the canonical serialization hashed into a job's full
// result key: everything that determines the job's Metrics, and
// nothing that doesn't (display labels and timeouts are excluded).
// Struct-field JSON marshaling is deterministic (fields in
// declaration order), so equal payloads produce equal bytes.
type keyPayload struct {
	Schema   int                 `json:"schema"`
	Skeleton skeletonFields      `json:"skeleton"`
	Inst     instantiationFields `json:"inst"`
}

// skeletonKeyPayload is hashed into the skeleton cache key, and with
// Compile set into the program key. The Kind marker keeps the key
// families structurally disjoint even before hashing.
type skeletonKeyPayload struct {
	Schema   int            `json:"schema"`
	Kind     string         `json:"kind"`
	Skeleton skeletonFields `json:"skeleton"`
	Compile  *compileFields `json:"compile,omitempty"`
}

// skeletonPart builds the skeleton field group from a canonicalized
// job.
func skeletonPart(j Job) (skeletonFields, error) {
	opts := j.Opts.Canonical()
	sk := skeletonFields{
		Source:      j.Source,
		Ordering:    opts.Ordering,
		ProfileFn:   opts.ProfileFn,
		ProfileArgs: opts.ProfileArgs,
		FrontUnroll: opts.FrontUnroll,
		UnrollPeel:  opts.UnrollPeel,
		CoreTweaks:  opts.CoreTweaks,
		Fanout:      opts.Cons.FanoutFactor,
	}
	if opts.Policy != nil {
		sk.Policy = opts.Policy.Name()
		// Policies carry tuning fields (e.g. the VLIW priority
		// exponents); their exported fields join the hash.
		raw, err := json.Marshal(opts.Policy)
		if err != nil {
			return sk, fmt.Errorf("engine: hashing policy %s: %w", sk.Policy, err)
		}
		sk.PolicyOpts = raw
		cons := opts.Cons
		sk.PolicyCons = &cons
	}
	if opts.Profile != nil {
		ser, err := opts.Profile.Serialized()
		if err != nil {
			return sk, fmt.Errorf("engine: hashing preloaded profile: %w", err)
		}
		sk.Profile = ser
	}
	return sk, nil
}

// Key returns the job's content-addressed cache key: the SHA-256 of
// the canonicalized (source, compiler options, simulator
// configuration, arguments) tuple. Jobs with a custom Fn body have no
// content address and return an error.
func Key(j Job) (string, error) {
	if j.Fn != nil {
		return "", fmt.Errorf("engine: custom-body job %s/%s is not cacheable", j.Workload, j.Config)
	}
	sk, err := skeletonPart(j)
	if err != nil {
		return "", err
	}
	p := keyPayload{
		Schema:   KeySchema,
		Skeleton: sk,
		Inst: instantiationFields{
			compileFields: compilePart(j),
			Sim:           j.Sim,
			Entry:         j.entry(),
			Args:          j.Args,
		},
	}
	if j.Sim == SimTiming {
		cfg := j.simConfig()
		p.Inst.SimConfig = &cfg
	}
	return hashJSON(p)
}

// compilePart builds the compile half of the instantiation fields.
func compilePart(j Job) compileFields {
	opts := j.Opts.Canonical()
	return compileFields{
		Cons:        opts.Cons,
		RegAlloc:    opts.RegAlloc,
		RegAllocOps: opts.RegAllocOpts,
		VerifyEach:  opts.VerifyEachPhase,
	}
}

// hashJSON returns the hex SHA-256 of v's JSON encoding.
func hashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// SkeletonKey returns the job's skeleton cache key: the content
// address of the parameter-independent option subset. Jobs that
// differ only in block capacities, back end, simulator, or arguments
// share one skeleton key — the compile-once, specialize-many axis.
func SkeletonKey(j Job) (string, error) {
	if j.Fn != nil {
		return "", fmt.Errorf("engine: custom-body job %s/%s is not cacheable", j.Workload, j.Config)
	}
	sk, err := skeletonPart(j)
	if err != nil {
		return "", err
	}
	return hashJSON(skeletonKeyPayload{Schema: KeySchema, Kind: "skeleton", Skeleton: sk})
}

// ProgramKey returns the job's program-tier key: Key without the
// simulation fields (Sim, SimConfig, Entry, Args), that is the
// skeleton fields plus the compile half of the instantiation fields.
// Jobs that share it compile to the same program and differ only in
// how it is simulated.
func ProgramKey(j Job) (string, error) {
	if j.Fn != nil {
		return "", fmt.Errorf("engine: custom-body job %s/%s is not cacheable", j.Workload, j.Config)
	}
	sk, err := skeletonPart(j)
	if err != nil {
		return "", err
	}
	cf := compilePart(j)
	return hashJSON(skeletonKeyPayload{Schema: KeySchema, Kind: "program", Skeleton: sk, Compile: &cf})
}

// CacheStats are the cache's operation counters.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// DiskHits counts hits served by the backing store rather than
	// the in-memory layer — local disk on a single node, possibly a
	// peer's store in a cluster (the tiered store's Stats break the
	// provenance down further).
	DiskHits int64 `json:"disk_hits"`
	// Puts counts stored results.
	Puts int64 `json:"puts"`
}

// Format renders the counters as the one-line summary the CLIs print.
func (s CacheStats) Format() string {
	return fmt.Sprintf("cache: %d hits (%d from store), %d misses, %d puts",
		s.Hits, s.DiskHits, s.Misses, s.Puts)
}

// resultMemLimit bounds the result cache's in-memory layer. The
// largest benchmark workload needs 576 distinct keys; a backing store,
// when there is one, keeps the evicted entries.
const resultMemLimit = 4096

// Cache is a content-addressed Metrics store with a bounded in-memory
// layer and an optional backing store.Store (local disk, a peer store,
// or a read-through tier chain). All methods are safe for concurrent
// use.
type Cache struct {
	backing store.Store // nil: memory-only
	mem     *memo.LRU[Metrics]

	hits, misses, storeHits, puts atomic.Int64
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: memo.NewLRU[Metrics](resultMemLimit)}
}

// NewDiskCache returns a cache that persists entries under dir (one
// enveloped JSON file per key, written atomically) in addition to the
// in-memory layer, so results survive across runs and can be shared
// between concurrent processes.
func NewDiskCache(dir string) (*Cache, error) {
	d, err := store.NewDisk(dir, KeySchema)
	if err != nil {
		return nil, fmt.Errorf("engine: cache dir: %w", err)
	}
	return NewStoreCache(d), nil
}

// NewStoreCache returns a cache over an arbitrary backing store —
// the cluster entry point: hand it a tiered disk+peer store and every
// node's results become every other node's warm cache.
func NewStoreCache(s store.Store) *Cache {
	return &Cache{backing: s, mem: memo.NewLRU[Metrics](resultMemLimit)}
}

// Store exposes the backing store (nil for a memory-only cache), e.g.
// for mounting the artifact handler or reporting tier stats.
func (c *Cache) Store() store.Store { return c.backing }

// Get looks the key up in memory and then in the backing store, using
// a background context. Store hits are promoted into memory.
func (c *Cache) Get(key string) (Metrics, bool) {
	return c.GetContext(context.Background(), key)
}

// GetContext is Get under the caller's context (which bounds backing-
// store reads — a peer fetch respects the request deadline).
func (c *Cache) GetContext(ctx context.Context, key string) (Metrics, bool) {
	m, ok := c.mem.Get(key)
	if ok {
		c.hits.Add(1)
		return m, true
	}
	if c.backing != nil {
		payload, ok, _ := c.backing.Get(ctx, key)
		if ok && json.Unmarshal(payload, &m) == nil {
			c.mem.Put(key, m)
			c.hits.Add(1)
			c.storeHits.Add(1)
			return m, true
		}
	}
	c.misses.Add(1)
	return Metrics{}, false
}

// Put stores the metrics under key, writing through to the backing
// store when one is attached (the local tier synchronously, deeper
// tiers on the store's write-back policy).
func (c *Cache) Put(key string, m Metrics) {
	c.mem.Put(key, m)
	c.puts.Add(1)
	if c.backing == nil {
		return
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return
	}
	_ = c.backing.Put(context.Background(), key, payload)
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int { return c.mem.Len() }

// Stats returns the operation counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		DiskHits: c.storeHits.Load(),
		Puts:     c.puts.Load(),
	}
}

// StoreStats snapshots the backing store's counters (nil Stats name
// when the cache is memory-only).
func (c *Cache) StoreStats() *store.Stats {
	if c.backing == nil {
		return nil
	}
	st, err := c.backing.Stat(context.Background())
	if err != nil {
		return nil
	}
	return &st
}

// Close flushes and closes the backing store (write-back tiers drain
// their deferred writes here).
func (c *Cache) Close() error {
	if c.backing == nil {
		return nil
	}
	return c.backing.Close()
}
