// Package store is the cluster artifact layer: a content-addressed
// store for compile+simulate results behind one small interface, with
// a local disk implementation, an in-memory implementation, an HTTP
// peer client (every hbserved node serves its local store at
// /artifact/{key}), and a read-through/write-back tiering combinator.
//
// Artifacts at rest and on the wire travel inside a self-verifying
// envelope: the writer's key schema, the content key, and the SHA-256
// of the payload. Every read re-opens the envelope — recompute the
// sum, compare the key, compare the schema — and anything that does
// not check out is a miss, never an error surfaced to the compile
// path: a torn disk entry, a tampered peer response, or a
// mixed-schema cluster all degrade to a recompute.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/seeded"
)

// Store is a content-addressed artifact store. Keys are opaque
// lower-hex content hashes (the engine's cache keys); payloads are
// opaque bytes (the engine stores Metrics JSON). Implementations are
// safe for concurrent use.
type Store interface {
	// Get returns the verified payload for key. ok is false on a
	// miss; err is reserved for environmental failures the caller may
	// want to log (a failed read is still reported as a miss — the
	// compile path treats every non-hit identically).
	Get(ctx context.Context, key string) (payload []byte, ok bool, err error)
	// Put stores the payload under key. Implementations may defer the
	// write (write-back tiers); Close flushes.
	Put(ctx context.Context, key string, payload []byte) error
	// Stat snapshots the store's counters.
	Stat(ctx context.Context) (Stats, error)
	// Close flushes deferred writes and releases resources.
	Close() error
}

// Lister is implemented by stores that can enumerate their keys (the
// local tiers: Disk and Mem). The anti-entropy sweeper walks a
// Lister to find under-replicated entries.
type Lister interface {
	// Keys returns the store's current key set (order unspecified).
	Keys(ctx context.Context) ([]string, error)
}

// Stats is the common counter surface. Not every implementation uses
// every field; Tiers carries per-tier breakdowns for combinators.
type Stats struct {
	// Name identifies the implementation/tier ("disk", "mem", "peer",
	// "tiered", or a caller-supplied label).
	Name string `json:"name"`
	// Gets/Hits/Misses/Puts count operations. Errors counts reads and
	// writes that failed environmentally (I/O, transport) — each such
	// read is also a miss.
	Gets   int64 `json:"gets"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	Errors int64 `json:"errors,omitempty"`
	// IntegrityRejects counts entries whose payload SHA-256 or key did
	// not match their envelope (tampering, bit rot); SchemaRejects
	// counts entries written under a different key schema; Corrupt
	// counts entries that did not parse at all (truncation, garbage).
	// All three degrade to misses.
	IntegrityRejects int64 `json:"integrity_rejects,omitempty"`
	SchemaRejects    int64 `json:"schema_rejects,omitempty"`
	Corrupt          int64 `json:"corrupt,omitempty"`
	// Promotes counts write-backs of deeper-tier hits into faster
	// tiers; WritebackDrops counts deferred writes dropped because the
	// write-back queue was full (tiered store only).
	Promotes       int64 `json:"promotes,omitempty"`
	WritebackDrops int64 `json:"writeback_drops,omitempty"`
	// ReadRepairs counts artifacts pushed back onto earlier-ranked
	// replicas that missed while a later replica hit (peer store
	// only); ScrubQuarantined counts entries the startup scrub moved
	// to the quarantine directory, and TmpSwept counts orphaned
	// temp files removed at open (disk store only).
	ReadRepairs      int64 `json:"read_repairs,omitempty"`
	ScrubQuarantined int64 `json:"scrub_quarantined,omitempty"`
	TmpSwept         int64 `json:"tmp_swept,omitempty"`
	// Tiers is the per-tier breakdown (tiered store only).
	Tiers []Stats `json:"tiers,omitempty"`
}

// Envelope-verification failures. All of them are reported to callers
// as misses; the typed errors exist so counters and tests can tell
// the paths apart.
var (
	// ErrIntegrity marks a payload whose recomputed SHA-256 (or key)
	// does not match its envelope.
	ErrIntegrity = errors.New("store: artifact integrity check failed")
	// ErrSchema marks an envelope written under a different keySchema.
	ErrSchema = errors.New("store: key-schema mismatch")
	// ErrCorrupt marks an envelope that does not parse (truncated or
	// garbage bytes).
	ErrCorrupt = errors.New("store: corrupt artifact envelope")
)

// envelope is the at-rest and on-the-wire artifact format.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"` // lower-hex SHA-256 of Payload
	Payload json.RawMessage `json:"payload"`
}

// Sum returns the lower-hex SHA-256 of payload — the integrity sum
// carried in every envelope.
func Sum(payload []byte) string {
	s := sha256.Sum256(payload)
	return hex.EncodeToString(s[:])
}

// Seal wraps payload in a verified envelope for schema/key.
func Seal(schema int, key string, payload []byte) ([]byte, error) {
	return json.Marshal(envelope{
		Schema:  schema,
		Key:     key,
		Sum:     Sum(payload),
		Payload: json.RawMessage(payload),
	})
}

// Open parses and verifies an envelope: the schema must match, the
// key must match, and the payload's recomputed SHA-256 must equal the
// envelope sum. Failures return ErrCorrupt, ErrSchema, or
// ErrIntegrity (wrapped).
func Open(schema int, key string, raw []byte) ([]byte, error) {
	var e envelope
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if e.Sum == "" || e.Payload == nil {
		return nil, fmt.Errorf("%w: missing sum or payload", ErrCorrupt)
	}
	if e.Schema != schema {
		return nil, fmt.Errorf("%w: entry schema %d, want %d", ErrSchema, e.Schema, schema)
	}
	if e.Key != key {
		return nil, fmt.Errorf("%w: entry key %.16s…, want %.16s…", ErrIntegrity, e.Key, key)
	}
	if got := Sum(e.Payload); got != e.Sum {
		return nil, fmt.Errorf("%w: payload sum %.16s…, envelope says %.16s…", ErrIntegrity, got, e.Sum)
	}
	return e.Payload, nil
}

// ValidKey reports whether key is usable as a store key: non-empty
// lower-hex (the engine's SHA-256 cache keys), so it can never carry
// path traversal into the disk store or URL tricks into the peer
// protocol.
func ValidKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Rank orders nodes for key by rendezvous (highest-random-weight)
// hashing: every participant computes the same order from the key and
// the node names alone, so shard choice needs no coordination, and
// removing one node only remaps the keys that ranked it first. The
// returned slice is a fresh permutation of nodes, best first.
func Rank(key string, nodes []string) []string {
	type scored struct {
		node  string
		score uint64
	}
	ss := make([]scored, len(nodes))
	for i, n := range nodes {
		ss[i] = scored{n, seeded.Hash(key + "\x00" + n)}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].node < ss[b].node
	})
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.node
	}
	return out
}
