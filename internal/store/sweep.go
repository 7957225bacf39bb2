package store

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sweeper is the anti-entropy repair loop: it walks the local store's
// keys, probes each key's top-R peer replicas, and pushes the local
// copy onto any replica that is missing it. Read-repair heals keys
// that get read; the sweeper heals the ones that don't — cold keys
// whose replica restarted with an empty store, writes that landed on
// fewer than R copies because a peer was down or the disk said
// ENOSPC. One full sweep of every node leaves every surviving key at
// full replication once every peer is reachable.
type Sweeper struct {
	local Lister
	src   Store
	peer  *Peer

	sweeps atomic.Int64
	pushes atomic.Int64
	errs   atomic.Int64

	mu       sync.Mutex
	lastHist map[int]int64 // remote copies per key, from the last sweep
	lastKeys int
	lastAt   time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// SweepStats snapshots the sweeper for /statusz.
type SweepStats struct {
	// Sweeps counts completed passes; Pushes counts repair copies
	// placed; Errors counts probe/push failures (unreachable peers —
	// the key stays on the next sweep's list).
	Sweeps int64 `json:"sweeps"`
	Pushes int64 `json:"pushes"`
	Errors int64 `json:"errors,omitempty"`
	// Keys is the local key count at the last sweep; Replication maps
	// confirmed remote copies ("0", "1", …) to how many local keys had
	// that many after repair — the cluster is healthy when everything
	// sits in the bucket for R.
	Keys        int              `json:"keys"`
	Replication map[string]int64 `json:"replication,omitempty"`
	// LastSweep is when the last pass finished (RFC3339, zero if none
	// yet).
	LastSweep string `json:"last_sweep,omitempty"`
}

// NewSweeper builds a sweeper pushing src's keys (enumerated via
// local) to peer's top-R replicas. src and local are usually the same
// Disk or Mem; they are separate parameters so a fault-wrapped store
// can serve reads while the raw store enumerates.
func NewSweeper(local Lister, src Store, peer *Peer) *Sweeper {
	return &Sweeper{
		local: local,
		src:   src,
		peer:  peer,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// SweepOnce runs one full pass: for every local key, probe the top-R
// peers in rendezvous order and push the local copy to any that miss.
// Returns the number of repair copies placed.
func (s *Sweeper) SweepOnce(ctx context.Context) (int, error) {
	keys, err := s.local.Keys(ctx)
	if err != nil {
		s.errs.Add(1)
		return 0, fmt.Errorf("store: sweep: list keys: %w", err)
	}
	r := s.peer.Replicas()
	bases := s.peer.Bases()
	hist := make(map[int]int64)
	pushed := 0
	for _, key := range keys {
		if ctx.Err() != nil {
			return pushed, ctx.Err()
		}
		targets := Rank(key, bases)
		if len(targets) > r {
			targets = targets[:r]
		}
		copies := 0
		var payload []byte
		for _, base := range targets {
			has, err := s.peer.HasAt(ctx, base, key)
			if err != nil {
				// Unreachable replica: not a repair target, not a
				// confirmed copy. The next sweep retries.
				s.errs.Add(1)
				continue
			}
			if has {
				copies++
				continue
			}
			if payload == nil {
				p, ok, gerr := s.src.Get(ctx, key)
				if gerr != nil || !ok {
					// The local copy vanished or failed verification
					// between listing and reading; nothing to push.
					s.errs.Add(1)
					break
				}
				payload = p
			}
			if err := s.peer.PutAt(ctx, base, key, payload); err != nil {
				s.errs.Add(1)
				continue
			}
			s.pushes.Add(1)
			pushed++
			copies++
		}
		hist[copies]++
	}
	s.sweeps.Add(1)
	s.mu.Lock()
	s.lastHist = hist
	s.lastKeys = len(keys)
	s.lastAt = time.Now()
	s.mu.Unlock()
	return pushed, nil
}

// Start launches the background sweep loop at the given interval.
// Call Stop to end it; Start returns immediately.
func (s *Sweeper) Start(interval time.Duration) {
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				s.SweepOnce(ctx)
				cancel()
			}
		}
	}()
}

// Stop ends the background loop and waits for the in-flight sweep's
// tick to finish. Safe to call more than once, and safe without a
// prior Start (it then returns immediately once called twice — the
// done channel is only closed by Start's goroutine, so Stop without
// Start closes stop and returns).
func (s *Sweeper) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
	}
}

// Stats snapshots the sweeper.
func (s *Sweeper) Stats() SweepStats {
	st := SweepStats{
		Sweeps: s.sweeps.Load(),
		Pushes: s.pushes.Load(),
		Errors: s.errs.Load(),
	}
	s.mu.Lock()
	st.Keys = s.lastKeys
	if !s.lastAt.IsZero() {
		st.LastSweep = s.lastAt.UTC().Format(time.RFC3339)
	}
	if len(s.lastHist) > 0 {
		st.Replication = make(map[string]int64, len(s.lastHist))
		buckets := make([]int, 0, len(s.lastHist))
		for b := range s.lastHist {
			buckets = append(buckets, b)
		}
		sort.Ints(buckets)
		for _, b := range buckets {
			st.Replication[fmt.Sprintf("%d", b)] = s.lastHist[b]
		}
	}
	s.mu.Unlock()
	return st
}
