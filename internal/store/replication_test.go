package store

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// node is a test artifact server: a Mem store behind the real
// handler.
type node struct {
	mem *Mem
	srv *httptest.Server
}

func newNodes(t *testing.T, n, schema int) ([]*node, []string) {
	t.Helper()
	nodes := make([]*node, n)
	bases := make([]string, n)
	for i := range nodes {
		mem := NewMem()
		srv := httptest.NewServer(NewHandler(mem, schema))
		t.Cleanup(srv.Close)
		nodes[i] = &node{mem: mem, srv: srv}
		bases[i] = srv.URL
	}
	return nodes, bases
}

func byBase(nodes []*node) map[string]*node {
	m := make(map[string]*node, len(nodes))
	for _, n := range nodes {
		m[n.srv.URL] = n
	}
	return m
}

// TestPeerReplicatedPut: with Replicas=2, a Put must land on exactly
// the key's top-2 rendezvous peers and nowhere else.
func TestPeerReplicatedPut(t *testing.T) {
	ctx := context.Background()
	nodes, bases := newNodes(t, 3, 3)
	idx := byBase(nodes)
	p := NewPeerWith("repl", 3, bases, nil, PeerOpts{Replicas: 2})

	k := key(1)
	payload := []byte(`{"cycles":42}`)
	if err := p.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	ranked := Rank(k, bases)
	for i, base := range ranked {
		_, ok, _ := idx[base].mem.Get(ctx, k)
		if want := i < 2; ok != want {
			t.Errorf("replica rank %d (%s): has=%v want %v", i, base, ok, want)
		}
	}
	if got, ok, err := p.Get(ctx, k); !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("replicated roundtrip: ok=%v err=%v got=%q", ok, err, got)
	}
}

// TestPeerPutSurvivesReplicaDown: killing one of the two replica
// targets must not fail the write — the surviving copy lands and
// serves reads.
func TestPeerPutSurvivesReplicaDown(t *testing.T) {
	ctx := context.Background()
	nodes, bases := newNodes(t, 3, 3)
	idx := byBase(nodes)
	p := NewPeerWith("repl", 3, bases, nil, PeerOpts{Replicas: 2})

	k := key(2)
	ranked := Rank(k, bases)
	idx[ranked[0]].srv.CloseClientConnections()
	idx[ranked[0]].srv.Close()

	payload := []byte(`{"cycles":7}`)
	if err := p.Put(ctx, k, payload); err != nil {
		t.Fatalf("put with one replica down: %v", err)
	}
	if _, ok, _ := idx[ranked[1]].mem.Get(ctx, k); !ok {
		t.Fatal("surviving replica did not receive the copy")
	}
	if got, ok, err := p.Get(ctx, k); !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("read with one replica down: ok=%v err=%v got=%q", ok, err, got)
	}
}

// TestPeerReadRepair: a hit found on the rank-1 replica while rank-0
// missed must be pushed back onto rank-0 and counted.
func TestPeerReadRepair(t *testing.T) {
	ctx := context.Background()
	nodes, bases := newNodes(t, 3, 3)
	idx := byBase(nodes)
	p := NewPeerWith("rr", 3, bases, nil, PeerOpts{Replicas: 2})

	k := key(3)
	payload := []byte(`{"cycles":11}`)
	ranked := Rank(k, bases)
	// Seed only the second-ranked replica, as if rank-0 lost its disk.
	if err := idx[ranked[1]].mem.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}

	got, ok, err := p.Get(ctx, k)
	if !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("deep read: ok=%v err=%v got=%q", ok, err, got)
	}
	if _, ok, _ := idx[ranked[0]].mem.Get(ctx, k); !ok {
		t.Fatal("read-repair did not heal the rank-0 replica")
	}
	st, _ := p.Stat(ctx)
	if st.ReadRepairs != 1 {
		t.Fatalf("ReadRepairs = %d, want 1 (%+v)", st.ReadRepairs, st)
	}

	// At R=1 there is no replica to repair: the same topology must
	// leave rank-0 alone.
	k2 := key(4)
	ranked2 := Rank(k2, bases)
	idx[ranked2[1]].mem.Put(ctx, k2, payload)
	p2 := NewPeerWith("no-rr", 3, bases, nil, PeerOpts{Replicas: 1})
	if _, ok, _ := p2.Get(ctx, k2); !ok {
		t.Fatal("deep read without repair missed")
	}
	if _, ok, _ := idx[ranked2[0]].mem.Get(ctx, k2); ok {
		t.Fatal("repair ran at replication factor 1")
	}
}

// TestPeerOpTimeout: a hung top-ranked peer must not eat the caller's
// whole budget — the per-op timeout fires and the next replica serves
// the hit.
func TestPeerOpTimeout(t *testing.T) {
	ctx := context.Background()
	k := key(5)
	payload := []byte(`{"cycles":9}`)

	good := NewMem()
	goodSrv := httptest.NewServer(NewHandler(good, 3))
	defer goodSrv.Close()
	good.Put(ctx, k, payload)

	release := make(chan struct{})
	hungSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hungSrv.Close()
	defer close(release) // LIFO: unblock handlers before Close waits on them

	// Order the hung peer first regardless of rendezvous by listing it
	// alone ahead of the good one... Rank permutes, so instead force
	// the scenario both ways and require the bounded outcome.
	p := NewPeerWith("op", 3, []string{hungSrv.URL, goodSrv.URL}, nil,
		PeerOpts{Replicas: 2, OpTimeout: 100 * time.Millisecond})
	start := time.Now()
	got, ok, err := p.Get(ctx, k)
	if !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("get past hung peer: ok=%v err=%v got=%q", ok, err, got)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("get took %v; per-op timeout did not bound the hung peer", d)
	}
}

// TestPeerCtxCancel: canceling the caller's context mid-transfer must
// return promptly from Get, Put, and HasAt instead of waiting out the
// op timeout, and Get must not go on probing further peers.
func TestPeerCtxCancel(t *testing.T) {
	hits := make(chan struct{}, 16)
	release := make(chan struct{})
	// Draining the body first matters: the server only watches for
	// client disconnect (and cancels r.Context()) once the request
	// body has been consumed, so a blocking handler that skips the
	// body would never see a canceled PUT.
	block := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		hits <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}
	blockSrv := httptest.NewServer(http.HandlerFunc(block))
	defer blockSrv.Close()
	blockSrv2 := httptest.NewServer(http.HandlerFunc(block))
	defer blockSrv2.Close()
	defer close(release) // LIFO: unblock handlers before Close waits on them

	p := NewPeerWith("cancel", 3, []string{blockSrv.URL, blockSrv2.URL}, nil,
		PeerOpts{Replicas: 2, OpTimeout: 30 * time.Second})
	k := key(6)

	run := func(name string, op func(ctx context.Context) error) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- op(ctx) }()
		select {
		case <-hits:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: request never reached the peer", name)
		}
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: succeeded despite cancellation", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: did not return after cancel", name)
		}
		// Drain any second-peer probe that raced the cancel.
		for {
			select {
			case <-hits:
				continue
			case <-time.After(50 * time.Millisecond):
			}
			break
		}
	}

	run("get", func(ctx context.Context) error {
		_, ok, err := p.Get(ctx, k)
		if ok {
			return nil
		}
		if err == nil {
			return context.Canceled
		}
		return err
	})
	run("put", func(ctx context.Context) error {
		return p.Put(ctx, k, []byte(`{"cycles":1}`))
	})
	run("hasat", func(ctx context.Context) error {
		_, err := p.HasAt(ctx, blockSrv.URL, k)
		return err
	})
}

// TestDiskTmpSweep is the regression test for orphaned temp files: a
// crash between CreateTemp and Rename leaves `<key>.tmp*` litter that
// a fresh open must remove without touching real entries.
func TestDiskTmpSweep(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	k := key(7)

	first, err := NewDisk(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(ctx, k, []byte(`{"cycles":3}`)); err != nil {
		t.Fatal(err)
	}
	// Plant the litter a crashed writer would leave.
	for _, name := range []string{k + ".tmp123456", key(8) + ".tmp9", "x.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err := NewDisk(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get(ctx, k); !ok {
		t.Fatal("sweep removed a real entry")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("orphaned temp file survived the sweep: %s", e.Name())
		}
	}
	st, _ := d.Stat(ctx)
	if st.TmpSwept != 3 {
		t.Fatalf("TmpSwept = %d, want 3", st.TmpSwept)
	}
}

// TestDiskScrub: corrupt and integrity-broken entries move to
// quarantine/ and stop being served; wrong-schema and valid entries
// stay put.
func TestDiskScrub(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	d, err := NewDisk(dir, 3)
	if err != nil {
		t.Fatal(err)
	}

	good, torn, tampered, alien := key(10), key(11), key(12), key(13)
	if err := d.Put(ctx, good, []byte(`{"cycles":1}`)); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, torn+".json"), []byte(`{"schema":3,"key":`), 0o644)
	raw := mustSeal(t, 3, tampered, []byte(`{"cycles":2}`))
	os.WriteFile(filepath.Join(dir, tampered+".json"),
		[]byte(strings.Replace(string(raw), `"cycles":2`, `"cycles":9`, 1)), 0o644)
	os.WriteFile(filepath.Join(dir, alien+".json"), mustSeal(t, 9, alien, []byte(`{"cycles":4}`)), 0o644)

	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 4 || rep.Quarantined != 2 || rep.SchemaSkipped != 1 {
		t.Fatalf("scrub report: %+v", rep)
	}
	for _, k := range []string{torn, tampered} {
		if _, err := os.Stat(filepath.Join(dir, QuarantineDir, k+".json")); err != nil {
			t.Errorf("quarantined entry %s.json not in %s/: %v", k[:8], QuarantineDir, err)
		}
		if _, ok, _ := d.Get(ctx, k); ok {
			t.Errorf("quarantined entry %s still served", k[:8])
		}
	}
	if _, ok, _ := d.Get(ctx, good); !ok {
		t.Fatal("scrub quarantined a valid entry")
	}
	if _, err := os.Stat(filepath.Join(dir, alien+".json")); err != nil {
		t.Fatal("scrub destroyed another schema's entry")
	}

	keys, err := d.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k == torn || k == tampered {
			t.Errorf("Keys lists quarantined entry %s", k[:8])
		}
	}
	st, _ := d.Stat(ctx)
	if st.ScrubQuarantined != 2 {
		t.Fatalf("ScrubQuarantined = %d, want 2", st.ScrubQuarantined)
	}

	// Scrub is idempotent: a second pass finds nothing new.
	rep2, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined != 0 {
		t.Fatalf("second scrub quarantined %d entries", rep2.Quarantined)
	}
}

// TestSweeper: one anti-entropy pass pushes every local key to its
// top-R peers; the next pass finds full replication and pushes
// nothing. A peer restarted in place with an empty store is refilled
// by one more pass: exactly the keys that rank it in their top R.
func TestSweeper(t *testing.T) {
	ctx := context.Background()
	nodes, bases := newNodes(t, 3, 3)
	local := NewMem()
	payloads := map[string][]byte{}
	for i := 20; i < 25; i++ {
		k := key(i)
		payloads[k] = []byte(fmt.Sprintf(`{"cycles":%d}`, i))
		local.Put(ctx, k, payloads[k])
	}

	p := NewPeerWith("sweep", 3, bases, nil, PeerOpts{Replicas: 2})
	s := NewSweeper(local, local, p)
	pushed, err := s.SweepOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 2*len(payloads) {
		t.Fatalf("first sweep pushed %d, want %d", pushed, 2*len(payloads))
	}
	idx := byBase(nodes)
	for k, want := range payloads {
		for _, base := range Rank(k, bases)[:2] {
			got, ok, _ := idx[base].mem.Get(ctx, k)
			if !ok || string(got) != string(want) {
				t.Fatalf("key %s not replicated to %s", k[:8], base)
			}
		}
	}

	pushed, err = s.SweepOnce(ctx)
	if err != nil || pushed != 0 {
		t.Fatalf("second sweep: pushed=%d err=%v, want 0/nil", pushed, err)
	}
	st := s.Stats()
	if st.Sweeps != 2 || st.Pushes != int64(2*len(payloads)) || st.Keys != len(payloads) {
		t.Fatalf("sweeper stats: %+v", st)
	}
	if st.Replication["2"] != int64(len(payloads)) {
		t.Fatalf("replication histogram: %+v, want all keys in bucket 2", st.Replication)
	}

	// Restart the first-ranked replica of key(20) at its URL with an
	// empty store.
	victim := Rank(key(20), bases)[0]
	idx[victim].srv.Close()
	ln, err := net.Listen("tcp", strings.TrimPrefix(victim, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewMem()
	srv := &httptest.Server{Listener: ln, Config: &http.Server{Handler: NewHandler(fresh, 3)}}
	srv.Start()
	t.Cleanup(srv.Close)
	want := map[string]bool{}
	for k := range payloads {
		for _, base := range Rank(k, bases)[:2] {
			if base == victim {
				want[k] = true
			}
		}
	}

	pushed, err = s.SweepOnce(ctx)
	if err != nil || pushed != len(want) {
		t.Fatalf("refill sweep: pushed=%d err=%v, want %d/nil", pushed, err, len(want))
	}
	for k := range payloads {
		got, ok, _ := fresh.Get(ctx, k)
		if ok != want[k] || (ok && string(got) != string(payloads[k])) {
			t.Fatalf("key %s on the restarted replica: has=%v, want %v", k[:8], ok, want[k])
		}
	}
	if st := s.Stats(); st.Replication["2"] != int64(len(payloads)) || len(st.Replication) != 1 {
		t.Fatalf("replication histogram after refill: %+v, want all keys in bucket 2", st.Replication)
	}
}
