// Chaos-facing peer tests live in an external test package: netchaos
// imports store (its transport corrupts artifact-protocol bodies), so
// an in-package test importing netchaos would be an import cycle.
package store_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos/netchaos"
	"repro/internal/store"
)

// TestPeerGetWalkHangBounded (satellite): when every ranked peer
// hangs — netchaos HangRate at certainty — the Get walk must still
// return, bounded by the per-op timeout per attempt, and by the
// request deadline when no per-op timeout is set. A hung replica
// costs one op budget, never the whole caller.
func TestPeerGetWalkHangBounded(t *testing.T) {
	k := store.Sum([]byte("hang-walk"))
	// Two real peers that would answer instantly; the hang is injected
	// client-side so the server never even sees the request.
	var bases []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusNotFound)
		}))
		t.Cleanup(srv.Close)
		bases = append(bases, srv.URL)
	}

	inj := netchaos.New(netchaos.Plan{Seed: 3, HangRate: 1024}, "client")
	inj.Arm()
	client := &http.Client{Transport: inj.Transport(nil)}

	t.Run("op-timeout", func(t *testing.T) {
		p := store.NewPeer("hang", 3, bases, client, 100*time.Millisecond)
		start := time.Now()
		_, ok, _ := p.Get(context.Background(), k)
		elapsed := time.Since(start)
		if ok {
			t.Fatal("a fully hung walk produced a hit")
		}
		// Two ranked peers, one op budget each, plus scheduling slack.
		if elapsed > time.Second {
			t.Fatalf("walk took %v; per-op timeout did not bound hung peers", elapsed)
		}
		if inj.Stats().Hangs == 0 {
			t.Fatal("no hang was injected — the fault path was never exercised")
		}
	})

	t.Run("request-deadline", func(t *testing.T) {
		// No per-op timeout: only the caller's deadline bounds the
		// walk, and it must — the first hung peer eats the rest of the
		// budget and the walk stops rather than probing on.
		p := store.NewPeer("hang", 3, bases, client, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, ok, _ := p.Get(ctx, k)
		elapsed := time.Since(start)
		if ok {
			t.Fatal("a fully hung walk produced a hit")
		}
		if elapsed > time.Second {
			t.Fatalf("walk took %v; the request deadline did not bound it", elapsed)
		}
	})
}
