package netchaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestRollDeterminism: every injection decision is a pure function of
// (seed, salt, site, seq) — same inputs, same word, on every run —
// and distinct seeds decide differently somewhere.
func TestRollDeterminism(t *testing.T) {
	a := Plan{Seed: 42}
	b := Plan{Seed: 42}
	c := Plan{Seed: 43}
	diff := false
	for seq := uint64(0); seq < 64; seq++ {
		for _, salt := range []uint64{saltDrop, saltLatency, salt5xx} {
			x, y := a.roll(salt, "node-1:8080/artifact/abc", seq), b.roll(salt, "node-1:8080/artifact/abc", seq)
			if x != y {
				t.Fatalf("same seed, different roll at seq %d", seq)
			}
			if x != c.roll(salt, "node-1:8080/artifact/abc", seq) {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 rolled identically at every site")
	}
}

// TestPartitionAsymmetry: the partition decision hashes the ordered
// (from, to) pair, so with enough pairs some path is severed in one
// direction only — and the matrix is identical on every evaluation.
func TestPartitionAsymmetry(t *testing.T) {
	p := Plan{Seed: 7, PartitionRate: 256}
	hosts := []string{"a:1", "b:2", "c:3", "d:4", "e:5", "f:6", "g:7", "h:8"}
	asym, sym := false, 0
	for _, x := range hosts {
		for _, y := range hosts {
			if x == y {
				continue
			}
			ab, ba := p.Partitioned(x, y), p.Partitioned(y, x)
			if ab != p.Partitioned(x, y) {
				t.Fatal("partition decision not stable")
			}
			if ab != ba {
				asym = true
			}
			if ab {
				sym++
			}
		}
	}
	if !asym {
		t.Fatal("no asymmetric partition among 56 directed pairs at rate 256/1024")
	}
	if sym == 0 {
		t.Fatal("no partition fired at all")
	}
}

// TestPlansSweep: the derived schedule sweep is deterministic and
// every plan can inject something.
func TestPlansSweep(t *testing.T) {
	a, b := Plans(1, 8), Plans(1, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs between derivations", i)
		}
		if !a[i].Active() {
			t.Fatalf("plan %d is inert: %s", i, a[i].Name())
		}
	}
	if Plans(2, 8)[0] == a[0] {
		t.Fatal("different base seeds produced the same first plan")
	}
}

// newEcho builds an inner server returning a fixed body, plus a
// transport-wrapped client against it.
func newEcho(t *testing.T, in *Injector, path string, body []byte) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	client := &http.Client{Transport: in.Transport(srv.Client().Transport)}
	_ = path
	return srv, client
}

// TestTransportDisarmed: a disarmed injector forwards verbatim even
// under an always-fire plan.
func TestTransportDisarmed(t *testing.T) {
	in := New(Plan{Seed: 1, DropRate: 1024, Err5xxRate: 1024, TruncateRate: 1024}, "me:1")
	srv, client := newEcho(t, in, "/", []byte("hello"))
	resp, err := client.Get(srv.URL + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(raw) != "hello" {
		t.Fatalf("disarmed transport altered the exchange: %d %q", resp.StatusCode, raw)
	}
	if in.Stats().Total() != 0 {
		t.Fatalf("disarmed injector counted faults: %+v", in.Stats())
	}
}

// TestTransportDrop: an always-drop plan fails every request with the
// synthetic transport error and counts it.
func TestTransportDrop(t *testing.T) {
	in := New(Plan{Seed: 1, DropRate: 1024}, "me:1")
	in.Arm()
	srv, client := newEcho(t, in, "/", []byte("x"))
	if _, err := client.Get(srv.URL + "/x"); err == nil {
		t.Fatal("always-drop plan let a request through")
	}
	if got := in.Stats().Drops; got != 1 {
		t.Fatalf("Drops = %d, want 1", got)
	}
}

// TestTransportHang: a hung connection blocks until the request
// context gives up, then fails.
func TestTransportHang(t *testing.T) {
	in := New(Plan{Seed: 1, HangRate: 1024}, "me:1")
	in.Arm()
	srv, client := newEcho(t, in, "/", []byte("x"))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/x", nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("hung request succeeded")
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 5*time.Second {
		t.Fatalf("hang released after %v, want ~ctx deadline", d)
	}
	if got := in.Stats().Hangs; got != 1 {
		t.Fatalf("Hangs = %d, want 1", got)
	}
}

// TestTransport5xx: the injected 503 is synthesized without touching
// the inner transport.
func TestTransport5xx(t *testing.T) {
	in := New(Plan{Seed: 1, Err5xxRate: 1024}, "me:1")
	in.Arm()
	inner := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { inner++ }))
	defer srv.Close()
	client := &http.Client{Transport: in.Transport(srv.Client().Transport)}
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if inner != 0 {
		t.Fatal("synthesized 503 still reached the inner server")
	}
}

// TestTransportPartition: with the from→to path severed, every
// request fails before the wire; the reverse injector direction is
// whatever the hash says, but this one stays severed for the window.
func TestTransportPartition(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	// Find a from-address this seed partitions away from the server.
	p := Plan{Seed: 11, PartitionRate: 512}
	from := ""
	for _, cand := range []string{"n1:1", "n2:2", "n3:3", "n4:4", "n5:5", "n6:6", "n7:7", "n8:8"} {
		if p.Partitioned(cand, host) {
			from = cand
			break
		}
	}
	if from == "" {
		t.Skip("seed 11 partitions no candidate from-host against this ephemeral port")
	}
	in := New(p, from)
	in.Arm()
	client := &http.Client{Transport: in.Transport(srv.Client().Transport)}
	for i := 0; i < 3; i++ {
		if _, err := client.Get(srv.URL + "/x"); err == nil {
			t.Fatal("severed path let a request through")
		}
	}
	if got := in.Stats().Partitions; got != 3 {
		t.Fatalf("Partitions = %d, want 3", got)
	}
}

// TestTransportCorruptionScope: truncation and bit flips hit artifact
// GET responses — where envelope verification catches them — and
// never any other path.
func TestTransportCorruptionScope(t *testing.T) {
	key := store.Sum([]byte("k"))
	payload := []byte(`{"cycles":42}`)
	sealed, err := store.Seal(3, key, payload)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, store.ArtifactPath) {
			w.Write(sealed)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	in := New(Plan{Seed: 1, TruncateRate: 1024}, "me:1")
	in.Arm()
	client := &http.Client{Transport: in.Transport(srv.Client().Transport)}

	resp, err := client.Get(srv.URL + store.ArtifactPath + key)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(raw) >= len(sealed) {
		t.Fatalf("artifact body not truncated: %d bytes of %d", len(raw), len(sealed))
	}
	if _, err := store.Open(3, key, raw); err == nil {
		t.Fatal("envelope verification accepted a truncated artifact")
	}

	resp, err = client.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(raw) != `{"ok":true}` {
		t.Fatalf("non-artifact body corrupted: %q", raw)
	}
	if got := in.Stats().Truncates; got != 1 {
		t.Fatalf("Truncates = %d, want 1", got)
	}
}

// TestFaultyStore: disk faults are errors, never corruption — writes
// fail ENOSPC/EIO-shaped, reads fail environmentally, and disarming
// restores the store verbatim.
func TestFaultyStore(t *testing.T) {
	ctx := context.Background()
	in := New(Plan{Seed: 1, DiskWriteErrRate: 1024, DiskReadErrRate: 1024}, "me:1")
	mem := store.NewMem()
	s := in.Store(mem)
	key := store.Sum([]byte("k"))

	if err := s.Put(ctx, key, []byte(`{"a":1}`)); err != nil {
		t.Fatal("disarmed faulty store failed a write:", err)
	}
	in.Arm()
	wrote := 0
	var enospc, eio bool
	for i := 0; i < 8; i++ {
		err := s.Put(ctx, key, []byte(`{"a":1}`))
		if err == nil {
			wrote++
			continue
		}
		if strings.Contains(err.Error(), "no space left") {
			enospc = true
		}
		if strings.Contains(err.Error(), "input/output error") {
			eio = true
		}
	}
	if wrote != 0 {
		t.Fatalf("always-fail write plan let %d writes through", wrote)
	}
	if !enospc || !eio {
		t.Fatalf("want both ENOSPC and EIO shapes; got enospc=%v eio=%v", enospc, eio)
	}
	if _, _, err := s.Get(ctx, key); err == nil {
		t.Fatal("always-fail read plan returned no error")
	}
	in.Disarm()
	got, ok, err := s.Get(ctx, key)
	if err != nil || !ok || string(got) != `{"a":1}` {
		t.Fatalf("disarmed read: ok=%v err=%v got=%q — the entry must have survived the fault window", ok, err, got)
	}
	st := in.Stats()
	if st.DiskWrite != 8 || st.DiskRead == 0 {
		t.Fatalf("disk fault counters: %+v", st)
	}
}

// TestDropErrorShape: synthetic failures are ordinary transport
// errors — errors.Is(ctx.Err()) style checks in callers see a plain
// error, not a typed sentinel they might special-case.
func TestDropErrorShape(t *testing.T) {
	var e error = &dropError{"boom"}
	if e.Error() != "boom" {
		t.Fatal("dropError lost its message")
	}
	if errors.Is(e, context.Canceled) {
		t.Fatal("dropError must not masquerade as context.Canceled")
	}
}

// okTransport answers every request 200 without touching the network.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("ok")), Request: req}, nil
}

// TestNamedTargetsStableAcrossPorts: an injector that names the nodes
// it sends to makes the same fault decisions when those nodes listen on
// other ports, as a storm's shards do from run to run.
func TestNamedTargetsStableAcrossPorts(t *testing.T) {
	plan := Plan{Seed: 5, DropRate: 200, PartitionRate: 300, Err5xxRate: 200}
	decisions := func(ports []int) []string {
		names := &Names{}
		for i, p := range ports {
			names.Set(fmt.Sprintf("http://127.0.0.1:%d", p), fmt.Sprintf("storm-%d", i))
		}
		in := New(plan, "front")
		in.SetNames(names)
		in.Arm()
		rt := in.Transport(okTransport{})
		var out []string
		for range 32 {
			for _, p := range ports {
				req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("http://127.0.0.1:%d/v1/jobs", p), nil)
				resp, err := rt.RoundTrip(req)
				switch {
				case err != nil:
					out = append(out, "drop")
				case resp.StatusCode != http.StatusOK:
					out = append(out, "5xx")
				default:
					out = append(out, "ok")
				}
			}
		}
		return out
	}
	a := decisions([]int{40001, 40002, 40003, 40004})
	b := decisions([]int{41501, 41502, 41503, 41504})
	if !slices.Equal(a, b) {
		t.Fatalf("the same named nodes on other ports drew other faults:\n%v\n%v", a, b)
	}
	if !slices.Contains(a, "ok") || !slices.Contains(a, "drop") || !slices.Contains(a, "5xx") {
		t.Fatalf("decisions %v: want some requests through, some dropped and some 5xx", a)
	}
}
