package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// sloSrc is the controlled-cost program for overload tests: service
// time scales linearly with n, and m (stamped per request) keeps
// every request's cache key distinct so the engine cache cannot turn
// overload into free traffic.
const sloSrc = `
func main(n, m) {
  var s = m;
  for (var i = 0; i < n; i = i + 1) { s = s + (i & 7); }
  return s;
}`

// calibrate measures this machine's service time for sloSrc and picks
// a loop bound landing near 40ms, so the overload ratio is about the
// hardware (and -race) the test actually runs on. Each seed calibrates
// afresh: when other packages' tests share the CPUs, their load
// changes from one seed to the next.
func calibrate(t *testing.T) (int64, time.Duration) {
	t.Helper()
	s, err := server.New(server.Config{Engine: engine.New(engine.Config{Workers: 2}), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		_ = s.Drain()
		ts.Close()
	}()
	const probeN = int64(1 << 18)
	client := &http.Client{}
	// Probe in pairs: the overload run keeps both workers busy, so
	// the calibrated service time must include the contention two
	// concurrent simulations actually see (doubly so under -race).
	var mu sync.Mutex
	var walls []float64
	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			seq := 90000 + wave*2 + j
			go func() {
				defer wg.Done()
				out := post(context.Background(), client, ts.URL, Arrival{Seq: seq, TimeoutMS: 10000},
					server.Request{Source: sloSrc, Sim: "timing", Args: []int64{probeN, int64(seq)}, TimeoutMS: 10000})
				if out.ErrClass == "ok" {
					mu.Lock()
					walls = append(walls, out.LatencyMS)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	if len(walls) < 4 {
		t.Fatalf("calibration failed: only %d of 6 probes of sloSrc succeeded", len(walls))
	}
	sort.Float64s(walls)
	w0 := walls[len(walls)/2]
	// Scale the bound toward ~40ms, clamped to sane cost.
	n := int64(float64(probeN) * 40 / w0)
	if n < 1<<14 {
		n = 1 << 14
	}
	if n > 1<<24 {
		n = 1 << 24
	}
	return n, time.Duration(w0 * float64(n) / float64(probeN) * float64(time.Millisecond))
}

// TestOverloadSLOBursty is the acceptance oracle: a bursty schedule
// offering 3× the server's measured capacity, replayed for seeds 1–4,
// once with one controlled-cost class and once with four classes
// costing 0.5, 0.5, 1 and 3 times the calibrated bound. The goodput
// SLO must hold on every seed: goodput above the floor, zero admitted
// requests past deadline+grace, and shed responses carrying jittered,
// positive Retry-After. Deterministic by seed: a red run replays with
// the same -seed.
func TestOverloadSLOBursty(t *testing.T) {
	if testing.Short() {
		t.Skip("overload SLO run is seconds long")
	}
	c := testCorpus(t)
	for _, tc := range []struct {
		prefix   string
		requests int
		costs    []float64 // per class, in calibrated service times
	}{
		{"", 96, []float64{1}},
		{"mixed_", 160, []float64{0.5, 0.5, 1, 3}},
	} {
		mean := 0.0
		for _, cost := range tc.costs {
			mean += cost / float64(len(tc.costs))
		}
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%sseed%d", tc.prefix, seed), func(t *testing.T) {
				loopN, w := calibrate(t)
				timeout := max(8*w, 250*time.Millisecond)
				const workers = 2
				// Offered rate = 3× capacity: requests spread over the
				// span the server would need to serve a third of them.
				span := time.Duration(float64(tc.requests) * mean * float64(w) / (3 * workers))
				srv, err := server.New(server.Config{
					Engine:          engine.New(engine.Config{Workers: workers}),
					Workers:         workers,
					QueueDepth:      8,
					DefaultTimeout:  timeout,
					RetryJitterSeed: uint64(seed),
				})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				defer func() {
					_ = srv.Drain()
					ts.Close()
				}()

				arr, err := Schedule(ScheduleConfig{
					Profile: Bursty, Seed: seed, Requests: tc.requests,
					Duration: span, Timeout: timeout, Corpus: c,
				})
				if err != nil {
					t.Fatal(err)
				}
				// Arrivals take turns over the classes; each maps to
				// sloSrc at its class's multiple of the calibrated
				// bound, uniquified by sequence number.
				resolve := func(a Arrival) server.Request {
					class := a.Seq % len(tc.costs)
					return server.Request{
						Source: sloSrc, Sim: "timing", Class: fmt.Sprintf("slo%d", class),
						Args:      []int64{int64(float64(loopN) * tc.costs[class]), int64(a.Seq)},
						TimeoutMS: a.TimeoutMS,
					}
				}
				outs, elapsed, err := Run(context.Background(), RunConfig{
					BaseURL: ts.URL, Arrivals: arr, Resolve: resolve,
				})
				if err != nil {
					t.Fatal(err)
				}
				grace := 500 * time.Millisecond
				rep := BuildReport(Bursty, seed, ts.URL, outs, elapsed, grace)
				if rep.ShedRetry.Count < 8 {
					t.Fatalf("only %d sheds at 3x overload — the run was not overloaded (classes %v)",
						rep.ShedRetry.Count, rep.Classes)
				}
				// Floor: ideal goodput at 3x overload is 1/3; sustained
				// contention (queue churn, GC, -race) roughly halves the
				// calibrated throughput, so require ~a third of ideal
				// with margin.
				if v := rep.CheckSLO(SLO{
					GoodputFloor:     0.10,
					Grace:            grace,
					MaxP50:           timeout,
					MinShedForJitter: 8,
				}); len(v) != 0 {
					t.Fatalf("SLO violations at seed %d:\n  %v\nclasses %v shed %+v goodput %.3f",
						seed, v, rep.Classes, rep.ShedRetry, rep.GoodputRatio)
				}
				t.Logf("goodput %.3f, shed causes %v", rep.GoodputRatio, srv.StatusSnapshot().Shed)
			})
		}
	}
}
