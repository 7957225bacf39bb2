package engine_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// testJob builds a fast compile+simulate job from a microbenchmark,
// using the training arguments for the measurement run (as the
// package tests do) to keep simulation cheap.
func testJob(t testing.TB, name string, ord compiler.Ordering, sim engine.SimKind) engine.Job {
	t.Helper()
	w, err := workloads.ByName(workloads.Micro(), name)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Job{
		Workload: w.Name,
		Config:   string(ord),
		Source:   w.Source,
		Opts: compiler.Options{
			Ordering:    ord,
			ProfileFn:   "main",
			ProfileArgs: w.TrainArgs,
		},
		Sim:  sim,
		Args: w.TrainArgs,
	}
}

// keyAllowlist names, by field path, the exported Job fields that are
// not content: display labels, the timeout, the custom body (which
// makes a job uncacheable) and compile hooks that never change a
// completed compile's output.
var keyAllowlist = map[string]bool{
	"Workload": true, "Config": true, "Timeout": true, "Fn": true,
	"Opts.RecordFormTrace": true, "Opts.FormTrace": true, "Opts.Checkpoint": true,
}

// perturb changes v, a settable non-struct field, to another value of
// its type; pointers are assumed nil and become non-nil. It reports
// false for a kind it cannot change.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Interface:
		if v.Type() != reflect.TypeOf((*core.Policy)(nil)).Elem() {
			return false
		}
		v.Set(reflect.ValueOf(policy.DepthFirst{}))
	default:
		return false
	}
	return true
}

// simOnly reports whether the field at path only steers simulation:
// it must change Key but leave ProgramKey alone, so that jobs differing
// in it share one compiled program.
func simOnly(path string) bool {
	switch path {
	case "Sim", "Entry", "Args":
		return true
	}
	return strings.HasPrefix(path, "SimConfig.")
}

// TestKeyStability: Key and ProgramKey are deterministic, and every
// exported field of engine.Job, compiler.Options (with its nested
// structs) and timing.Config either changes Key or sits on
// keyAllowlist. Every such field also changes ProgramKey, except the
// simulation-only ones (simOnly), which must leave it unchanged. A
// field added without reaching keyPayload fails here, before a
// replicated store can serve stale artifacts under the old key or the
// program tier can serve a program compiled under other options.
func TestKeyStability(t *testing.T) {
	base := testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming)
	// Spell the defaults out so that no perturbation lands on a value
	// canonicalization would erase.
	base.Entry = "main"
	base.Opts = base.Opts.Canonical()
	base.SimConfig = timing.DefaultConfig()
	k1, err := engine.Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := engine.Key(base); k1 != k2 {
		t.Fatalf("same job hashed differently: %s vs %s", k1, k2)
	}
	if k, _ := engine.Key(testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming)); k != k1 {
		t.Error("canonicalized defaults changed the key")
	}
	p1, err := engine.ProgramKey(base)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := engine.ProgramKey(testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming)); p != p1 {
		t.Error("canonicalized defaults changed the program key")
	}
	if sk, _ := engine.SkeletonKey(base); p1 == k1 || p1 == sk {
		t.Error("the program key collides with the result or skeleton key")
	}

	seen := map[string]string{k1: "base"}
	seenProg := map[string]string{p1: "base"}
	visited := map[string]bool{}
	var walk func(typ reflect.Type, prefix string, index []int)
	walk = func(typ reflect.Type, prefix string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			path, idx := prefix+f.Name, append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, path+".", idx)
				continue
			}
			visited[path] = true
			j := base
			if !perturb(reflect.ValueOf(&j).Elem().FieldByIndex(idx)) {
				t.Errorf("%s: cannot perturb a %s; teach perturb its kind", path, f.Type)
				continue
			}
			k, err := engine.Key(j)
			p, perr := engine.ProgramKey(j)
			switch {
			case keyAllowlist[path]:
				if err == nil && k != k1 {
					t.Errorf("%s is allowlisted as non-content but changes the key", path)
				}
				if perr == nil && p != p1 {
					t.Errorf("%s is allowlisted as non-content but changes the program key", path)
				}
				continue
			case err != nil || perr != nil:
				t.Errorf("%s: %v / %v", path, err, perr)
				continue
			case k == k1:
				t.Errorf("%s does not reach engine.Key; hash it or allowlist it", path)
			case seen[k] != "":
				t.Errorf("%s collides with %s", path, seen[k])
			default:
				seen[k] = path
			}
			switch {
			case simOnly(path):
				if p != p1 {
					t.Errorf("%s only steers simulation but changes engine.ProgramKey", path)
				}
			case p == p1:
				t.Errorf("%s does not reach engine.ProgramKey; a cached program would serve it", path)
			case seenProg[p] != "":
				t.Errorf("%s collides with %s in the program key", path, seenProg[p])
			default:
				seenProg[p] = path
			}
		}
	}
	walk(reflect.TypeOf(base), "", nil)
	for _, deep := range []string{"Opts.RegAllocOpts.Cons.FanoutFactor", "Opts.CoreTweaks.SplitOversize", "SimConfig.WatchdogGap"} {
		if !visited[deep] {
			t.Errorf("the walk never reached %s", deep)
		}
	}

	// VLIW policies with different tuning must hash differently even
	// though Name() is identical.
	v1, v2 := base, base
	v1.Opts.Policy = &policy.VLIW{MaxPaths: 16}
	v2.Opts.Policy = &policy.VLIW{MaxPaths: 32}
	kv1, _ := engine.Key(v1)
	kv2, _ := engine.Key(v2)
	if kv1 == kv2 {
		t.Error("policy tuning fields not hashed")
	}
	pv1, _ := engine.ProgramKey(v1)
	pv2, _ := engine.ProgramKey(v2)
	if pv1 == pv2 {
		t.Error("policy tuning fields not hashed into the program key")
	}

	fn := engine.Job{Fn: func() (engine.Metrics, error) { return engine.Metrics{}, nil }}
	if _, err := engine.ProgramKey(fn); err == nil {
		t.Error("custom-body job unexpectedly has a program key")
	}
	if _, err := engine.Key(fn); err == nil {
		t.Error("custom-body job unexpectedly cacheable")
	}
}

// stripTimes zeroes the wall-time fields, which legitimately vary
// between runs.
func stripTimes(rs []engine.Result) []engine.Metrics {
	out := make([]engine.Metrics, len(rs))
	for i, r := range rs {
		m := r.Metrics
		m.CompileNS, m.SimNS = 0, 0
		out[i] = m
	}
	return out
}

func TestDeterminismParallel(t *testing.T) {
	var jobs []engine.Job
	for _, name := range []string{"vadd", "sieve"} {
		for _, ord := range []compiler.Ordering{compiler.OrderBB, compiler.OrderIUPO, compiler.OrderIUPO1} {
			jobs = append(jobs, testJob(t, name, ord, engine.SimTiming))
		}
	}
	serial := engine.New(engine.Config{Workers: 1}).Run(jobs)
	parallel := engine.New(engine.Config{Workers: 8}).Run(jobs)
	for _, r := range append(serial, parallel...) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if !reflect.DeepEqual(stripTimes(serial), stripTimes(parallel)) {
		t.Fatal("parallel run (-j 8) differs from serial run (-j 1)")
	}
	for i, r := range parallel {
		if r.Index != i || r.Job.Workload != jobs[i].Workload || r.Job.Config != jobs[i].Config {
			t.Fatalf("result %d out of submission order", i)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	ok := func() (engine.Metrics, error) { return engine.Metrics{Result: 42}, nil }
	jobs := []engine.Job{
		{Workload: "good1", Fn: ok},
		{Workload: "boom", Fn: func() (engine.Metrics, error) { panic("kaboom") }},
		{Workload: "good2", Fn: ok},
	}
	rs := engine.New(engine.Config{Workers: 2}).Run(jobs)
	if rs[0].Err != nil || rs[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v, %v", rs[0].Err, rs[2].Err)
	}
	if rs[0].Metrics.Result != 42 || rs[2].Metrics.Result != 42 {
		t.Fatal("healthy job metrics lost")
	}
	if rs[1].Err == nil || !strings.Contains(rs[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", rs[1].Err)
	}
}

func TestTimeoutCancellation(t *testing.T) {
	hung := make(chan struct{})
	jobs := []engine.Job{
		{Workload: "hang", Fn: func() (engine.Metrics, error) { <-hung; return engine.Metrics{}, nil }},
		{Workload: "fast", Fn: func() (engine.Metrics, error) { return engine.Metrics{Result: 1}, nil }},
	}
	start := time.Now()
	rs := engine.New(engine.Config{Workers: 2, Timeout: 50 * time.Millisecond}).Run(jobs)
	close(hung)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the run: %s", elapsed)
	}
	if !errors.Is(rs[0].Err, engine.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", rs[0].Err)
	}
	if rs[1].Err != nil || rs[1].Metrics.Result != 1 {
		t.Fatalf("sibling job affected: %+v", rs[1])
	}

	// A per-job timeout overrides the engine default.
	r := engine.New(engine.Config{Workers: 1}).Run([]engine.Job{{
		Workload: "hang2",
		Timeout:  50 * time.Millisecond,
		Fn: func() (engine.Metrics, error) {
			time.Sleep(10 * time.Second)
			return engine.Metrics{}, nil
		},
	}})[0]
	if !errors.Is(r.Err, engine.ErrTimeout) {
		t.Fatalf("per-job timeout ignored: %v", r.Err)
	}
}

func TestCacheHitsAndDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	job := testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming)

	c1, err := engine.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Config{Workers: 2, Cache: c1})
	first := e1.Run([]engine.Job{job})[0]
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first run unexpectedly hit")
	}
	again := e1.Run([]engine.Job{job})[0]
	if !again.CacheHit {
		t.Fatal("second run missed the in-memory cache")
	}
	if !reflect.DeepEqual(again.Metrics, first.Metrics) {
		t.Fatal("cached metrics differ from computed metrics")
	}

	// A fresh cache over the same directory serves the result from
	// disk.
	c2, err := engine.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Config{Workers: 2, Cache: c2})
	persisted := e2.Run([]engine.Job{job})[0]
	if persisted.Err != nil {
		t.Fatal(persisted.Err)
	}
	if !persisted.CacheHit {
		t.Fatal("persisted entry not served from disk")
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	if !reflect.DeepEqual(persisted.Metrics, first.Metrics) {
		t.Fatal("disk round-trip changed the metrics")
	}

	// A different configuration must miss.
	other := testJob(t, "vadd", compiler.OrderBB, engine.SimTiming)
	if r := e2.Run([]engine.Job{other})[0]; r.CacheHit {
		t.Fatal("different ordering hit the cache")
	}
}

func TestTracer(t *testing.T) {
	tracer := engine.NewTracer()
	cache := engine.NewCache()
	eng := engine.New(engine.Config{Workers: 2, Cache: cache, Tracer: tracer})
	job := testJob(t, "vadd", compiler.OrderBB, engine.SimTiming)
	eng.Run([]engine.Job{job})
	eng.Run([]engine.Job{job}) // second run hits
	sib := job
	sib.Sim = engine.SimFunctional
	eng.Run([]engine.Job{sib}) // served from the program tier

	s := tracer.Summary()
	if s.Jobs != 3 || s.Errors != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.CacheHits != 1 || s.CacheMisses != 2 || s.HitRate != 1.0/3 {
		t.Fatalf("cache counters wrong: %+v", s)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Summary engine.Summary `json:"summary"`
		Jobs    []engine.Event `json:"jobs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.Jobs) != 3 || doc.Summary.Jobs != 3 {
		t.Fatalf("trace shape wrong: %d jobs", len(doc.Jobs))
	}
	if doc.Jobs[0].Workload != "vadd" || doc.Jobs[0].Key == "" {
		t.Fatalf("event missing fields: %+v", doc.Jobs[0])
	}
	if doc.Jobs[0].ProgramHit || !doc.Jobs[2].ProgramHit {
		t.Fatalf("program_hit = %v, %v; want false, true", doc.Jobs[0].ProgramHit, doc.Jobs[2].ProgramHit)
	}
	if !strings.Contains(s.Format(), "cache 1 hit / 2 miss") {
		t.Errorf("summary format: %s", s.Format())
	}
}

// TestStreamTracer checks the live NDJSON sink: one JSON line per
// job, written as jobs finish, while the batch WriteJSON document
// stays intact.
func TestStreamTracer(t *testing.T) {
	var live bytes.Buffer
	tracer := engine.NewStreamTracer(&live)
	eng := engine.New(engine.Config{Workers: 2, Cache: engine.NewCache(), Tracer: tracer})
	jobs := []engine.Job{
		testJob(t, "vadd", compiler.OrderBB, engine.SimTiming),
		testJob(t, "vadd", compiler.OrderIUPO1, engine.SimTiming),
	}
	eng.Run(jobs)

	lines := strings.Split(strings.TrimSpace(live.String()), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("want %d NDJSON lines, got %d: %q", len(jobs), len(lines), live.String())
	}
	seen := map[int]bool{}
	for _, ln := range lines {
		var ev engine.Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line is not valid JSON: %v: %q", err, ln)
		}
		if ev.Workload != "vadd" || ev.Error != "" {
			t.Fatalf("unexpected event: %+v", ev)
		}
		seen[ev.Index] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("missing job indices: %v", seen)
	}

	var batch bytes.Buffer
	if err := tracer.WriteJSON(&batch); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs []engine.Event `json:"jobs"`
	}
	if err := json.Unmarshal(batch.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != len(jobs) {
		t.Fatalf("batch trace lost events: %d", len(doc.Jobs))
	}
}

func TestRetryAfterPanic(t *testing.T) {
	var attempts int32
	jobs := []engine.Job{{
		Workload: "flaky",
		Fn: func() (engine.Metrics, error) {
			if atomic.AddInt32(&attempts, 1) == 1 {
				panic("transient")
			}
			return engine.Metrics{Result: 7}, nil
		},
	}}
	tr := engine.NewTracer()
	rs := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond, Tracer: tr}).Run(jobs)
	if rs[0].Err != nil {
		t.Fatalf("flaky job should recover on retry: %v", rs[0].Err)
	}
	if rs[0].Metrics.Result != 7 {
		t.Fatalf("retry metrics lost: %+v", rs[0].Metrics)
	}
	if rs[0].Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rs[0].Retries)
	}
	// The retry is visible in the trace and its summary.
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Retries != 1 || evs[0].Error != "" {
		t.Fatalf("trace missed the retry: %+v", evs)
	}
	if s := tr.Summary(); s.Retries != 1 || s.Errors != 0 {
		t.Fatalf("summary missed the retry: %+v", s)
	}
}

func TestRetryDeterministicPanicFailsOnce(t *testing.T) {
	var attempts int32
	r := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond}).Run([]engine.Job{{
		Workload: "boom",
		Fn: func() (engine.Metrics, error) {
			atomic.AddInt32(&attempts, 1)
			panic("always")
		},
	}})[0]
	if r.Err == nil || !errors.Is(r.Err, engine.ErrPanic) {
		t.Fatalf("want ErrPanic, got %v", r.Err)
	}
	if got := atomic.LoadInt32(&attempts); got != 2 {
		t.Fatalf("attempts = %d, want exactly 2 (one retry)", got)
	}
	if r.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", r.Retries)
	}
}

func TestNoRetryForOrdinaryErrors(t *testing.T) {
	var attempts int32
	r := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond}).Run([]engine.Job{{
		Workload: "err",
		Fn: func() (engine.Metrics, error) {
			atomic.AddInt32(&attempts, 1)
			return engine.Metrics{}, errors.New("compile failed")
		},
	}})[0]
	if r.Err == nil {
		t.Fatal("error lost")
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("ordinary error retried: attempts = %d", got)
	}
	if r.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", r.Retries)
	}
}

func TestRetryDisabled(t *testing.T) {
	var attempts int32
	r := engine.New(engine.Config{Workers: 1, RetryBackoff: -1}).Run([]engine.Job{{
		Workload: "boom",
		Fn: func() (engine.Metrics, error) {
			atomic.AddInt32(&attempts, 1)
			panic("always")
		},
	}})[0]
	if r.Err == nil {
		t.Fatal("panic error lost")
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("retry ran despite RetryBackoff < 0: attempts = %d", got)
	}
}

func TestRetryAfterTimeout(t *testing.T) {
	var attempts int32
	r := engine.New(engine.Config{Workers: 1, RetryBackoff: time.Millisecond}).Run([]engine.Job{{
		Workload: "slow-once",
		Timeout:  30 * time.Millisecond,
		Fn: func() (engine.Metrics, error) {
			if atomic.AddInt32(&attempts, 1) == 1 {
				time.Sleep(10 * time.Second)
			}
			return engine.Metrics{Result: 9}, nil
		},
	}})[0]
	if r.Err != nil {
		t.Fatalf("timed-out-once job should recover: %v", r.Err)
	}
	if r.Metrics.Result != 9 || r.Retries != 1 {
		t.Fatalf("bad recovery: %+v", r)
	}
}
