// Package corpus promotes the differential-fuzzing program generator
// into a traffic-realistic workload corpus: thousands of seeded tl
// programs, each fingerprinted by the CFG-shape features the
// formation heuristics actually key on (loop-nest depth, trip-count
// histogram, branch bias, call depth, block count) and auto-clustered
// under a stable per-cluster ID.
//
// The cluster ID is the serving system's workload class: the load
// driver stamps it on every request, the server echoes it in each
// response, and load reports break goodput and latency down by it.
// Because the ID is a pure function of one program's shape — never of
// corpus composition — the same program classifies identically on
// every node and in every corpus size, so per-class reports stay
// comparable across a fleet.
package corpus

import (
	"fmt"
	"sort"

	"repro/internal/fuzz"
)

// Config parameterizes Build. The zero value selects the defaults.
type Config struct {
	// Seed is the base generator seed; program i is generated with
	// Seed+i, so corpora of different sizes share a prefix.
	Seed int64
	// N is the corpus size (default 512).
	N int
	// Gen bounds generated program shapes (zero value: the fuzz
	// generator's defaults, which already cover the paper's kernel
	// shapes).
	Gen fuzz.GenConfig
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 512
	}
	return c
}

// Program is one corpus member.
type Program struct {
	// Seed regenerates Source exactly (fuzz.Generate(Seed, Gen)).
	Seed int64 `json:"seed"`
	// Source is the tl program text.
	Source string `json:"-"`
	// Features is the CFG-shape fingerprint; Cluster is its quantized
	// stable ID (the request workload class).
	Features Features `json:"features"`
	Cluster  string   `json:"cluster"`
}

// Corpus is a built program set with its cluster index.
type Corpus struct {
	// Programs in generation order (index i has seed Config.Seed+i).
	Programs []Program
	// byCluster maps cluster ID to member indices, ascending.
	byCluster map[string][]int
	clusters  []string // sorted IDs
}

// Build generates and clusters a corpus. Deterministic: same Config,
// same corpus, byte for byte.
func Build(cfg Config) (*Corpus, error) {
	cfg = cfg.withDefaults()
	c := &Corpus{
		Programs:  make([]Program, 0, cfg.N),
		byCluster: map[string][]int{},
	}
	for i := 0; i < cfg.N; i++ {
		seed := cfg.Seed + int64(i)
		src := fuzz.Generate(seed, cfg.Gen)
		ft, err := Extract(src)
		if err != nil {
			// The generator only emits valid programs; a parse failure
			// here is a generator/parser regression, not bad input.
			return nil, fmt.Errorf("corpus: seed %d: %w", seed, err)
		}
		p := Program{Seed: seed, Source: src, Features: ft, Cluster: ft.ClusterID()}
		c.byCluster[p.Cluster] = append(c.byCluster[p.Cluster], len(c.Programs))
		c.Programs = append(c.Programs, p)
	}
	c.clusters = make([]string, 0, len(c.byCluster))
	for id := range c.byCluster {
		c.clusters = append(c.clusters, id)
	}
	sort.Strings(c.clusters)
	return c, nil
}

// Clusters lists the cluster IDs present, sorted.
func (c *Corpus) Clusters() []string { return c.clusters }

// Members returns the program indices of one cluster, ascending (nil
// for an unknown ID).
func (c *Corpus) Members(id string) []int { return c.byCluster[id] }

// DeepCallCluster returns the ID of the cluster with the deepest
// static call chains (ties broken by more members, then lexically) —
// the adversarial profile's program pool. Empty corpus returns "".
func (c *Corpus) DeepCallCluster() string {
	best := ""
	bestDepth, bestN := -1, -1
	for _, id := range c.clusters {
		members := c.byCluster[id]
		depth := c.Programs[members[0]].Features.CallDepth
		for _, i := range members[1:] {
			if d := c.Programs[i].Features.CallDepth; d > depth {
				depth = d
			}
		}
		if depth > bestDepth || (depth == bestDepth && len(members) > bestN) {
			best, bestDepth, bestN = id, depth, len(members)
		}
	}
	return best
}

// ClusterStat summarizes one cluster for reports and /statusz-style
// introspection.
type ClusterStat struct {
	ID        string  `json:"id"`
	Members   int     `json:"members"`
	CallDepth int     `json:"max_call_depth"`
	AvgBlocks float64 `json:"avg_blocks"`
}

// Stats summarizes every cluster, sorted by ID.
func (c *Corpus) Stats() []ClusterStat {
	out := make([]ClusterStat, 0, len(c.clusters))
	for _, id := range c.clusters {
		members := c.byCluster[id]
		st := ClusterStat{ID: id, Members: len(members)}
		blocks := 0
		for _, i := range members {
			f := c.Programs[i].Features
			if f.CallDepth > st.CallDepth {
				st.CallDepth = f.CallDepth
			}
			blocks += f.Blocks
		}
		st.AvgBlocks = float64(blocks) / float64(len(members))
		out = append(out, st)
	}
	return out
}
