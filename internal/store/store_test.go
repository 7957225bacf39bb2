package store

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func key(i int) string {
	return Sum([]byte(fmt.Sprintf("key-%d", i)))
}

// TestEnvelopeRoundtrip seals a payload and re-opens it through every
// verification failure mode: intact, garbage bytes, truncation, wrong
// schema, wrong key, and a tampered payload.
func TestEnvelopeRoundtrip(t *testing.T) {
	k := key(1)
	payload := []byte(`{"cycles":42}`)
	raw, err := Seal(7, k, payload)
	if err != nil {
		t.Fatal(err)
	}

	got, err := Open(7, k, raw)
	if err != nil {
		t.Fatalf("open intact envelope: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload corrupted through roundtrip: %q", got)
	}

	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"garbage", []byte("not json at all"), ErrCorrupt},
		{"truncated", raw[:len(raw)/2], ErrCorrupt},
		{"empty object", []byte(`{}`), ErrCorrupt},
		{"wrong key", mustSeal(t, 7, key(2), payload), ErrIntegrity},
	}
	for _, tc := range cases {
		if _, err := Open(7, k, tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Open(8, k, raw); !errors.Is(err, ErrSchema) {
		t.Errorf("schema mismatch: got %v, want ErrSchema", err)
	}
	// Tampered payload: flip bytes inside the payload field only.
	tampered := strings.Replace(string(raw), `"cycles":42`, `"cycles":43`, 1)
	if tampered == string(raw) {
		t.Fatal("tamper failed to change the envelope")
	}
	if _, err := Open(7, k, []byte(tampered)); !errors.Is(err, ErrIntegrity) {
		t.Errorf("tampered payload: got %v, want ErrIntegrity", err)
	}
}

func mustSeal(t *testing.T, schema int, key string, payload []byte) []byte {
	t.Helper()
	raw, err := Seal(schema, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestValidKey(t *testing.T) {
	for _, ok := range []string{key(1), "abc123", "0"} {
		if !ValidKey(ok) {
			t.Errorf("ValidKey(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "ABC", "../../etc/passwd", "a/b", "g", strings.Repeat("a", 129)} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

// TestRank checks the rendezvous properties routing depends on:
// determinism, full permutation, spread across nodes, and minimal
// disruption when a node leaves. The front ranks only the serving
// members of a membership view, so removing any one node, whatever its
// rank, must leave the relative order of all the others unchanged.
func TestRank(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d", "http://e"}
	first := map[string]int{}
	for i := 0; i < 200; i++ {
		k := key(i)
		order := Rank(k, nodes)
		if len(order) != len(nodes) {
			t.Fatalf("Rank returned %d nodes, want %d", len(order), len(nodes))
		}
		again := Rank(k, nodes)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("Rank not deterministic for %s", k)
			}
		}
		first[order[0]]++

		for r, gone := range order {
			var without []string
			for _, n := range nodes {
				if n != gone {
					without = append(without, n)
				}
			}
			want := append(append([]string{}, order[:r]...), order[r+1:]...)
			if got := Rank(k, without); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("%s: removing rank-%d node %s reordered the rest: %v, want %v", k, r, gone, got, want)
			}
		}
	}
	for _, n := range nodes {
		if first[n] == 0 {
			t.Errorf("node %s never ranked first across 200 keys", n)
		}
	}
}

// TestDiskStore exercises the roundtrip, the atomic-write guarantee
// (no temp files survive), and every on-disk corruption path: each
// one must read as a miss with the matching counter, never an error.
func TestDiskStore(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	k := key(1)
	payload := []byte(`{"cycles":42}`)

	if _, ok, err := d.Get(ctx, k); ok || err != nil {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	if err := d.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get(ctx, k)
	if !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("roundtrip: ok=%v err=%v got=%q", ok, err, got)
	}

	// Atomicity: the only file for the key is the final rename target.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s survived Put", e.Name())
		}
	}

	corrupt := func(name string, bytes []byte) string {
		kk := Sum([]byte(name))
		if err := os.WriteFile(filepath.Join(dir, kk+".json"), bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		return kk
	}
	intact := mustSeal(t, 3, key(9), payload)
	cases := []struct {
		name  string
		key   string
		count func(Stats) int64
	}{
		{"garbage json", corrupt("garbage", []byte("{{{{")), func(s Stats) int64 { return s.Corrupt }},
		{"truncated", corrupt("trunc", intact[:len(intact)-10]), func(s Stats) int64 { return s.Corrupt }},
		{"wrong schema", corrupt("schema", mustSeal(t, 2, Sum([]byte("schema")), payload)), func(s Stats) int64 { return s.SchemaRejects }},
		{"tampered", corrupt("tamper", mustSeal(t, 3, key(8), payload)), func(s Stats) int64 { return s.IntegrityRejects }},
	}
	for _, tc := range cases {
		before, _ := d.Stat(ctx)
		raw, ok, err := d.Get(ctx, tc.key)
		if ok || err != nil || raw != nil {
			t.Errorf("%s: Get = (%q, %v, %v); want miss without error", tc.name, raw, ok, err)
		}
		after, _ := d.Stat(ctx)
		if tc.count(after) != tc.count(before)+1 {
			t.Errorf("%s: reject counter did not advance (%+v -> %+v)", tc.name, before, after)
		}
		if after.Misses != before.Misses+1 {
			t.Errorf("%s: miss counter did not advance", tc.name)
		}
	}

	// A rejected entry must not block a fresh Put + Get of the same key.
	bad := corrupt("rewrite", []byte("torn"))
	if err := d.Put(ctx, bad, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := d.Get(ctx, bad); !ok || string(got) != string(payload) {
		t.Fatalf("overwriting a torn entry: ok=%v got=%q", ok, got)
	}
}

func TestMemStore(t *testing.T) {
	m := NewMem()
	ctx := context.Background()
	k := key(1)
	payload := []byte("data")
	if err := m.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // the store must have copied
	got, ok, _ := m.Get(ctx, k)
	if !ok || string(got) != "data" {
		t.Fatalf("mem store aliased caller bytes: ok=%v got=%q", ok, got)
	}
	got[0] = 'Y'
	got2, _, _ := m.Get(ctx, k)
	if string(got2) != "data" {
		t.Fatalf("mem store aliased returned bytes: %q", got2)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestMemStoreIsBounded: the in-process store keeps its memLimit most
// recently used entries, and the sweeper's key list shrinks with it.
func TestMemStoreIsBounded(t *testing.T) {
	m := NewMem()
	ctx := context.Background()
	const extra = 100
	for i := range memLimit + extra {
		if err := m.Put(ctx, key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := m.Keys(ctx)
	if m.Len() != memLimit || len(keys) != memLimit {
		t.Fatalf("after %d distinct puts: Len = %d, %d keys; want %d", memLimit+extra, m.Len(), len(keys), memLimit)
	}
	if _, ok, _ := m.Get(ctx, key(extra-1)); ok {
		t.Error("an entry past the bound survived")
	}
	if _, ok, _ := m.Get(ctx, key(memLimit+extra-1)); !ok {
		t.Error("the most recent entry was evicted")
	}
}

// TestTieredPromoteAndWriteback: a deeper hit promotes into the
// faster tier synchronously; a Put reaches deeper tiers via the
// write-back worker; Close flushes.
func TestTieredPromoteAndWriteback(t *testing.T) {
	fast, slow := NewMem(), NewMem()
	tiered := NewTiered(fast, slow)
	ctx := context.Background()
	payload := []byte("artifact")

	deep := key(1)
	if err := slow.Put(ctx, deep, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := tiered.Get(ctx, deep)
	if !ok || string(got) != "artifact" {
		t.Fatalf("deep hit: ok=%v got=%q", ok, got)
	}
	if _, ok, _ := fast.Get(ctx, deep); !ok {
		t.Fatal("deep hit was not promoted into the fast tier")
	}
	st, _ := tiered.Stat(ctx)
	if st.Promotes != 1 {
		t.Fatalf("Promotes = %d, want 1", st.Promotes)
	}
	if len(st.Tiers) != 2 {
		t.Fatalf("Tiers = %d, want 2", len(st.Tiers))
	}

	wrote := key(2)
	if err := tiered.Put(ctx, wrote, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := fast.Get(ctx, wrote); !ok {
		t.Fatal("Put missed the sync tier")
	}
	if err := tiered.Close(); err != nil { // flushes the write-back queue
		t.Fatal(err)
	}
	if _, ok, _ := slow.Get(ctx, wrote); !ok {
		t.Fatal("write-back never reached the deep tier")
	}
	if err := tiered.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPeerStore runs the real handler over httptest: roundtrip
// through the wire, 404 misses, schema negotiation, and a tampering
// peer whose bytes must be rejected as a miss with the integrity
// counter advanced.
func TestPeerStore(t *testing.T) {
	ctx := context.Background()
	local := NewMem()
	srv := httptest.NewServer(NewHandler(local, 3))
	defer srv.Close()

	p := NewPeer("test", 3, []string{srv.URL + "/"}, srv.Client())
	k := key(1)
	payload := []byte(`{"cycles":42}`)

	if _, ok, err := p.Get(ctx, k); ok || err != nil {
		t.Fatalf("miss: ok=%v err=%v", ok, err)
	}
	if err := p.Put(ctx, k, payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := local.Get(ctx, k); !ok {
		t.Fatal("Put did not land in the remote local store")
	}
	got, ok, err := p.Get(ctx, k)
	if !ok || err != nil || string(got) != string(payload) {
		t.Fatalf("roundtrip: ok=%v err=%v got=%q", ok, err, got)
	}

	// Schema negotiation: a client on a different schema gets nothing
	// in either direction.
	p2 := NewPeer("mixed", 4, []string{srv.URL}, srv.Client())
	if _, ok, _ := p2.Get(ctx, k); ok {
		t.Fatal("cross-schema Get succeeded; must be refused")
	}
	if err := p2.Put(ctx, k, payload); err == nil {
		t.Fatal("cross-schema Put succeeded; must be refused")
	}
	st, _ := p2.Stat(ctx)
	if st.SchemaRejects == 0 {
		t.Fatalf("schema rejects not counted: %+v", st)
	}

	// A byzantine peer serves an envelope whose sum does not cover its
	// payload: the client must refuse it and report a miss.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := mustSeal(t, 3, k, payload)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(strings.Replace(string(raw), `"cycles":42`, `"cycles":99`, 1)))
	}))
	defer evil.Close()
	pe := NewPeer("evil", 3, []string{evil.URL}, evil.Client())
	if _, ok, _ := pe.Get(ctx, k); ok {
		t.Fatal("tampered artifact accepted")
	}
	st, _ = pe.Stat(ctx)
	if st.IntegrityRejects != 1 || st.Misses != 1 {
		t.Fatalf("tampered fetch counters: %+v", st)
	}
}

// TestHandlerRejects covers the server side of the protocol: invalid
// keys, bad envelopes, and tampered PUTs never reach the local store.
func TestHandlerRejects(t *testing.T) {
	local := NewMem()
	srv := httptest.NewServer(NewHandler(local, 3))
	defer srv.Close()
	client := srv.Client()
	k := key(1)

	get := func(path string, hdr map[string]string) int {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		for h, v := range hdr {
			req.Header.Set(h, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/artifact/..%2F..%2Fetc", nil); got != http.StatusBadRequest {
		t.Errorf("traversal key: %d, want 400", got)
	}
	if got := get("/artifact/"+k, map[string]string{SchemaHeader: "2"}); got != http.StatusPreconditionFailed {
		t.Errorf("schema mismatch: %d, want 412", got)
	}
	if got := get("/artifact/"+k, nil); got != http.StatusNotFound {
		t.Errorf("miss: %d, want 404", got)
	}

	put := func(body string) int {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/artifact/"+k, strings.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := put("garbage"); got != http.StatusBadRequest {
		t.Errorf("garbage PUT: %d, want 400", got)
	}
	tampered := strings.Replace(string(mustSeal(t, 3, k, []byte(`{"a":1}`))), `"a":1`, `"a":2`, 1)
	if got := put(tampered); got != http.StatusBadRequest {
		t.Errorf("tampered PUT: %d, want 400", got)
	}
	if local.Len() != 0 {
		t.Fatalf("rejected PUTs reached the store: %d entries", local.Len())
	}
}
