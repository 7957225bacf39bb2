package load

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/workloads/corpus"
)

func testCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Build(corpus.Config{Seed: 1, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScheduleDeterministic: the arrival stream is a pure function of
// (profile, seed) — byte-identical across runs, distinct across seeds.
func TestScheduleDeterministic(t *testing.T) {
	c := testCorpus(t)
	for _, p := range Profiles() {
		cfg := ScheduleConfig{Profile: p, Seed: 42, Requests: 100, Corpus: c}
		a, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two schedules of the same seed differ", p)
		}
		var bufA, bufB bytes.Buffer
		if err := WriteStream(&bufA, a); err != nil {
			t.Fatal(err)
		}
		if err := WriteStream(&bufB, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Fatalf("%s: encoded streams differ", p)
		}
		cfg.Seed = 43
		d, err := Schedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a, d) {
			t.Fatalf("%s: seeds 42 and 43 produced identical schedules", p)
		}
	}
}

// TestScheduleShapes pins each profile's distinguishing property.
func TestScheduleShapes(t *testing.T) {
	c := testCorpus(t)
	span := 10 * time.Second

	// Bursty: every arrival inside the first quarter of some period.
	arr, err := Schedule(ScheduleConfig{Profile: Bursty, Seed: 1, Requests: 200, Duration: span, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	period := span / 8
	on := period / 4
	for _, a := range arr {
		at := time.Duration(a.AtUS) * time.Microsecond
		if off := at % period; off > on {
			t.Fatalf("bursty arrival at %s lands %s into its period (on-window %s)", at, off, on)
		}
	}

	// Diurnal: the middle half of the span holds clearly more than
	// half the arrivals.
	arr, err = Schedule(ScheduleConfig{Profile: Diurnal, Seed: 1, Requests: 400, Duration: span, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	mid := 0
	for _, a := range arr {
		at := time.Duration(a.AtUS) * time.Microsecond
		if at >= span/4 && at < 3*span/4 {
			mid++
		}
	}
	if mid <= len(arr)*55/100 {
		t.Fatalf("diurnal: only %d/%d arrivals in the middle half", mid, len(arr))
	}

	// Adversarial: every arrival from the deep-call cluster.
	arr, err = Schedule(ScheduleConfig{Profile: Adversarial, Seed: 1, Requests: 50, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	deep := c.DeepCallCluster()
	for _, a := range arr {
		if a.Class != deep {
			t.Fatalf("adversarial arrival in class %q, want deep-call cluster %q", a.Class, deep)
		}
	}

	// HotKey: at most 4 distinct programs, more distinct configs.
	arr, err = Schedule(ScheduleConfig{Profile: HotKey, Seed: 1, Requests: 200, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[int]bool{}
	orderings := map[string]bool{}
	for _, a := range arr {
		progs[a.ProgramIdx] = true
		orderings[a.Ordering] = true
	}
	if len(progs) > 4 {
		t.Fatalf("hotkey drew %d distinct programs, want <= 4", len(progs))
	}
	if len(orderings) < 2 {
		t.Fatalf("hotkey used %d orderings, want the config dimension exercised", len(orderings))
	}
}

// TestStreamRoundTrip: WriteStream/ReadStream are inverses.
func TestStreamRoundTrip(t *testing.T) {
	c := testCorpus(t)
	arr, err := Schedule(ScheduleConfig{Profile: Steady, Seed: 9, Requests: 30, Corpus: c})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, arr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arr, got) {
		t.Fatal("stream round trip changed the schedule")
	}
}

// TestReportMath pins the report aggregation on synthetic outcomes.
func TestReportMath(t *testing.T) {
	outs := []Outcome{
		{Seq: 0, Class: "a", ErrClass: "ok", LatencyMS: 50, TimeoutMS: 1000},
		{Seq: 1, Class: "a", ErrClass: "ok", LatencyMS: 1500, TimeoutMS: 1000},      // ok but late: admitted, not goodput
		{Seq: 2, Class: "a", ErrClass: "timeout", LatencyMS: 1050, TimeoutMS: 1000}, // inside grace
		{Seq: 3, Class: "b", ErrClass: "timeout", LatencyMS: 1900, TimeoutMS: 1000}, // beyond grace: miss
		{Seq: 4, Class: "b", ErrClass: "shed", LatencyMS: 1, TimeoutMS: 1000, RetryAfterMS: 120},
		{Seq: 5, Class: "b", ErrClass: "shed", LatencyMS: 1, TimeoutMS: 1000, RetryAfterMS: 180},
		{Seq: 6, Class: "b", ErrClass: "shed", LatencyMS: 1, TimeoutMS: 1000},
		{Seq: 7, Class: "b", LatencyMS: 3, TimeoutMS: 1000, Err: "conn refused"}, // lost
		{Seq: 8, Class: "a", ErrClass: "degraded", LatencyMS: 200, TimeoutMS: 1000},
	}
	rep := BuildReport(Bursty, 7, "http://x", outs, 2*time.Second, 500*time.Millisecond)
	if rep.Offered != 9 || rep.Lost != 1 || rep.Admitted != 5 {
		t.Fatalf("offered/lost/admitted = %d/%d/%d, want 9/1/5", rep.Offered, rep.Lost, rep.Admitted)
	}
	if rep.Goodput != 2 { // seq 0 and seq 8
		t.Fatalf("goodput = %d, want 2", rep.Goodput)
	}
	if rep.DeadlineMisses != 1 {
		t.Fatalf("deadline misses = %d, want 1 (seq 3)", rep.DeadlineMisses)
	}
	if rep.ShedRetry.Count != 3 || rep.ShedRetry.Zeroes != 1 || rep.ShedRetry.Distinct != 2 {
		t.Fatalf("shed retry summary = %+v", rep.ShedRetry)
	}
	if rep.ShedRetry.MinMS != 120 || rep.ShedRetry.MaxMS != 180 {
		t.Fatalf("shed retry min/max = %d/%d", rep.ShedRetry.MinMS, rep.ShedRetry.MaxMS)
	}
	if rep.Classes["ok"] != 2 || rep.Classes["shed"] != 3 || rep.Classes["lost"] != 1 {
		t.Fatalf("classes = %v", rep.Classes)
	}
	if rep.PerClass["a"].Offered != 4 || rep.PerClass["b"].Offered != 5 {
		t.Fatalf("per-class offered = a:%d b:%d", rep.PerClass["a"].Offered, rep.PerClass["b"].Offered)
	}

	v := rep.CheckSLO(SLO{GoodputFloor: 0.5, Grace: 500 * time.Millisecond, MinShedForJitter: 3})
	// Expected violations: lost > 0, goodput 2/9 < .5, one deadline
	// miss, one zero Retry-After, only 2 distinct Retry-After values.
	if len(v) != 5 {
		t.Fatalf("violations = %d %q, want 5", len(v), v)
	}

	clean := BuildReport(Steady, 1, "x", []Outcome{
		{ErrClass: "ok", LatencyMS: 10, TimeoutMS: 1000},
		{Seq: 1, ErrClass: "ok", LatencyMS: 20, TimeoutMS: 1000},
	}, time.Second, 500*time.Millisecond)
	if v := clean.CheckSLO(SLO{GoodputFloor: 0.9, Grace: 500 * time.Millisecond}); len(v) != 0 {
		t.Fatalf("clean run has violations: %q", v)
	}
}

// TestRunAgainstServer replays a small steady schedule against a real
// server and checks every request got a terminal response.
func TestRunAgainstServer(t *testing.T) {
	c := testCorpus(t)
	s, err := server.New(server.Config{Engine: engine.New(engine.Config{Workers: 4})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		_ = s.Drain()
		ts.Close()
	}()

	arr, err := Schedule(ScheduleConfig{
		Profile: Steady, Seed: 5, Requests: 24,
		Duration: 2 * time.Second, Timeout: 5 * time.Second, Corpus: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs, elapsed, err := Run(context.Background(), RunConfig{
		BaseURL:   ts.URL,
		Arrivals:  arr,
		Resolve:   Requests(c),
		TimeScale: 0.1, // replay the 2s schedule in ~200ms
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(Steady, 5, ts.URL, outs, elapsed, 500*time.Millisecond)
	if rep.Lost > 0 {
		t.Fatalf("%d requests lost: %+v", rep.Lost, outs)
	}
	if rep.Goodput == 0 {
		t.Fatalf("no goodput from an unloaded server: classes=%v", rep.Classes)
	}
	if rep.DeadlineMisses > 0 {
		t.Fatalf("%d deadline misses on an unloaded server", rep.DeadlineMisses)
	}
	// Per-class reports cover every offered request.
	total := 0
	for _, cr := range rep.PerClass {
		total += cr.Offered
	}
	if total != rep.Offered {
		t.Fatalf("per-class offered sums to %d, report offered %d", total, rep.Offered)
	}
}
