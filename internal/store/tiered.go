package store

import (
	"context"
	"sync"
	"time"
)

// writebackQueue bounds the deferred-write channel; a full queue
// drops the write-back (counted) rather than blocking the compile
// path — deeper tiers are an optimization, never a dependency.
const writebackQueue = 256

// writebackTimeout bounds one deferred write so a dead peer cannot
// wedge the write-back worker, and bounds Close's whole flush: a hung
// peer costs a draining node one timeout, not one per queued write.
const writebackTimeout = 5 * time.Second

// wbItem is one deferred write: the payload for key going to tier
// index i of tiers.
type wbItem struct {
	key     string
	payload []byte
	tier    int
}

// Tiered chains stores fastest-first with read-through and
// write-back:
//
//   - Get tries tiers in order and stops at the first hit; the hit is
//     then promoted synchronously into every faster tier, so the next
//     read is local.
//   - Put writes the first (local) tier synchronously — the node's own
//     durability — and enqueues deferred best-effort writes to every
//     deeper tier on a single write-back worker.
//   - Close flushes the write-back queue within writebackTimeout,
//     then closes every tier.
type Tiered struct {
	tiers []Store
	wb    chan wbItem
	done  chan struct{}
	once  sync.Once
	// flush is the context every deferred write derives from; Close
	// cancels it through abort once the flush has run out of time.
	flush context.Context
	abort context.CancelFunc
	counters
}

// NewTiered chains the given stores fastest-first and starts the
// write-back worker. With one tier it still works (and degenerates to
// that tier plus counters).
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{
		tiers: tiers,
		wb:    make(chan wbItem, writebackQueue),
		done:  make(chan struct{}),
	}
	t.flush, t.abort = context.WithCancel(context.Background())
	go t.writeback()
	return t
}

// writeback drains the deferred-write queue. Once Close has aborted
// the flush, what is still queued is dropped and counted.
func (t *Tiered) writeback() {
	defer close(t.done)
	for it := range t.wb {
		if t.flush.Err() != nil {
			t.wbDrops.Add(1)
			continue
		}
		ctx, cancel := context.WithTimeout(t.flush, writebackTimeout)
		if err := t.tiers[it.tier].Put(ctx, it.key, it.payload); err != nil {
			t.errs.Add(1)
		}
		cancel()
	}
}

// Get reads through the tiers; a deeper hit is promoted into every
// faster tier before returning.
func (t *Tiered) Get(ctx context.Context, key string) ([]byte, bool, error) {
	t.gets.Add(1)
	var lastErr error
	for i, tier := range t.tiers {
		payload, ok, err := tier.Get(ctx, key)
		if err != nil {
			lastErr = err
		}
		if !ok {
			continue
		}
		// Promote synchronously into the faster tiers (they are local
		// by construction: the remote tiers come last).
		for j := 0; j < i; j++ {
			if err := t.tiers[j].Put(ctx, key, payload); err == nil {
				t.promotes.Add(1)
			} else {
				t.errs.Add(1)
			}
		}
		t.hits.Add(1)
		return payload, true, nil
	}
	t.misses.Add(1)
	return nil, false, lastErr
}

// Put writes the local tier synchronously and defers the rest.
func (t *Tiered) Put(ctx context.Context, key string, payload []byte) error {
	err := t.tiers[0].Put(ctx, key, payload)
	if err != nil {
		t.errs.Add(1)
	} else {
		t.puts.Add(1)
	}
	for i := 1; i < len(t.tiers); i++ {
		select {
		case t.wb <- wbItem{key: key, payload: payload, tier: i}:
		default:
			t.wbDrops.Add(1)
		}
	}
	return err
}

// Stat snapshots the combinator's counters plus every tier's.
func (t *Tiered) Stat(ctx context.Context) (Stats, error) {
	st := t.counters.snapshot("tiered")
	for _, tier := range t.tiers {
		ts, err := tier.Stat(ctx)
		if err != nil {
			continue
		}
		st.Tiers = append(st.Tiers, ts)
	}
	return st, nil
}

// Close flushes deferred writes, giving the whole flush one
// writebackTimeout, and closes the tiers. Safe to call more than once.
func (t *Tiered) Close() error {
	var first error
	t.once.Do(func() {
		close(t.wb)
		timer := time.AfterFunc(writebackTimeout, t.abort)
		<-t.done
		timer.Stop()
		t.abort()
		for _, tier := range t.tiers {
			if err := tier.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}
