package store

import (
	"context"

	"repro/internal/memo"
)

// memLimit bounds the in-process store. It holds the engine's results
// and the formation skeletons their compiles record, so it keeps twice
// the entries of the engine's 4,096-entry result LRU.
const memLimit = 8192

// Mem is the in-process store: a bounded map of verified payloads that
// evicts the least recently used entry past memLimit. It backs
// cache-dir-less hbserved nodes so their artifacts are still
// peer-addressable, and it is the natural test double.
type Mem struct {
	lru *memo.LRU[[]byte]
	counters
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{lru: memo.NewLRU[[]byte](memLimit)}
}

// Get returns a copy of the stored payload.
func (s *Mem) Get(ctx context.Context, key string) ([]byte, bool, error) {
	s.gets.Add(1)
	p, ok := s.lru.Get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	out := make([]byte, len(p))
	copy(out, p)
	return out, true, nil
}

// Put stores a copy of the payload.
func (s *Mem) Put(ctx context.Context, key string, payload []byte) error {
	p := make([]byte, len(payload))
	copy(p, payload)
	s.lru.Put(key, p)
	s.puts.Add(1)
	return nil
}

// Len reports the number of stored entries.
func (s *Mem) Len() int { return s.lru.Len() }

// Stat snapshots the counters.
func (s *Mem) Stat(ctx context.Context) (Stats, error) {
	return s.counters.snapshot("mem"), nil
}

// Close is a no-op.
func (s *Mem) Close() error { return nil }
