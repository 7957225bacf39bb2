package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// simKnobs are the single-knob timing variants the program tier must
// serve from one compiled program.
var simKnobs = []struct {
	name string
	set  func(*timing.Config)
}{
	{"MaxInflight", func(c *timing.Config) { c.MaxInflight = 2 }},
	{"IssueWidth", func(c *timing.Config) { c.IssueWidth = 4 }},
	{"FetchCycles", func(c *timing.Config) { c.FetchCycles = 16 }},
	{"MispredictPenalty", func(c *timing.Config) { c.MispredictPenalty = 24 }},
	{"CacheLines", func(c *timing.Config) { c.CacheLines = 64 }},
	{"HistoryLen", func(c *timing.Config) { c.HistoryLen = 2 }},
}

var allOrderings = []compiler.Ordering{
	compiler.OrderBB, compiler.OrderUPIO, compiler.OrderIUPO, compiler.OrderIUPthenO, compiler.OrderIUPO1,
}

// microJob is a timing job over a micro kernel, simulated on its
// training arguments.
func microJob(w *workloads.Workload, ord compiler.Ordering) Job {
	return Job{
		Workload: w.Name, Config: string(ord), Source: w.Source,
		Opts:      compiler.Options{Ordering: ord, ProfileFn: "main", ProfileArgs: w.TrainArgs},
		Sim:       SimTiming,
		SimConfig: timing.DefaultConfig(),
		Args:      w.TrainArgs,
	}
}

// siblings lists jobs that share base's program but not its result:
// the measurement arguments, each single-knob timing variant, and the
// functional simulator.
func siblings(w *workloads.Workload, base Job) map[string]Job {
	out := map[string]Job{}
	args := base
	args.Args = w.Args
	out["args"] = args
	for _, k := range simKnobs {
		j := base
		k.set(&j.SimConfig)
		out[k.name] = j
	}
	fn := base
	fn.Sim, fn.SimConfig = SimFunctional, timing.Config{}
	out["functional"] = fn
	return out
}

// freshMetrics runs j on a new engine, so from source.
func freshMetrics(t *testing.T, j Job) Metrics {
	t.Helper()
	r := New(Config{Workers: 1}).Submit(context.Background(), j)
	if r.Err != nil || r.ProgramHit {
		t.Fatalf("%s/%s: fresh engine: err=%v ProgramHit=%v", j.Workload, j.Config, r.Err, r.ProgramHit)
	}
	return r.Metrics
}

// cachedText returns the FormatProgram text of j's cached program.
func cachedText(t *testing.T, e *Engine, j Job) string {
	t.Helper()
	pkey, err := ProgramKey(j)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := e.progs.mem.get(pkey)
	if !ok {
		t.Fatalf("%s/%s: no cached program", j.Workload, j.Config)
	}
	return ir.FormatProgram(c.prog)
}

// sameMetrics fails unless got equals want field for field, wall
// times aside.
func sameMetrics(t *testing.T, what string, got, want Metrics) {
	t.Helper()
	got.CompileNS, got.SimNS = 0, 0
	want.CompileNS, want.SimNS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: program-tier result diverges from a fresh engine:\n got: %+v\nwant: %+v", what, got, want)
	}
}

// raceKernels are the micro kernels the differential covers in a
// -race build, where all of them would take minutes.
var raceKernels = []string{"vadd", "gzip_1", "twolf_1"}

// TestProgramTierDifferential is the program tier's oracle: for every
// micro kernel under every ordering, fill the tier, then serve each
// sibling from it. Every sibling must be a program hit whose metrics
// equal a fresh engine's, and no simulation may change the cached
// program's text.
func TestProgramTierDifferential(t *testing.T) {
	micro := workloads.Micro()
	for i := range micro {
		w := &micro[i]
		if raceEnabled && !slices.Contains(raceKernels, w.Name) {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, ord := range allOrderings {
				e := New(Config{Workers: 1})
				base := microJob(w, ord)
				if r := e.Submit(context.Background(), base); r.Err != nil || r.ProgramHit {
					t.Fatalf("%s: fill: err=%v ProgramHit=%v", ord, r.Err, r.ProgramHit)
				}
				text := cachedText(t, e, base)
				for name, sib := range siblings(w, base) {
					r := e.Submit(context.Background(), sib)
					if r.Err != nil || r.CacheHit || !r.ProgramHit {
						t.Fatalf("%s/%s: err=%v CacheHit=%v ProgramHit=%v, want a program hit", ord, name, r.Err, r.CacheHit, r.ProgramHit)
					}
					sameMetrics(t, fmt.Sprintf("%s/%s", ord, name), r.Metrics, freshMetrics(t, sib))
				}
				if got := cachedText(t, e, base); got != text {
					t.Fatalf("%s: simulating the cached program changed it", ord)
				}
				if s := e.ProgramStats(); s.Misses != 1 || s.Hits != 8 || s.Entries != 1 {
					t.Fatalf("%s: program stats %+v, want 1 miss, 8 hits, 1 entry", ord, s)
				}
			}
		})
	}
}

// TestProgramTierConcurrentSimulation simulates one cached program
// from many goroutines at once; under -race it proves the simulators
// only read the program they share.
func TestProgramTierConcurrentSimulation(t *testing.T) {
	micro := workloads.Micro()
	for _, name := range []string{"ammp_2", "bzip2_3", "doppler_gmti", "fft4_gmti", "gzip_1", "parser_1", "twolf_1", "vadd"} {
		w, err := workloads.ByName(micro, name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{Workers: 8})
		base := microJob(w, compiler.OrderIUPO1)
		if r := e.Submit(context.Background(), base); r.Err != nil {
			t.Fatal(r.Err)
		}
		text := cachedText(t, e, base)
		sibs := siblings(w, base)
		got := map[string]Result{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for sname, sib := range sibs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := e.Submit(context.Background(), sib)
				mu.Lock()
				got[sname] = r
				mu.Unlock()
			}()
		}
		wg.Wait()
		for sname, r := range got {
			if r.Err != nil || !r.ProgramHit {
				t.Fatalf("%s/%s: err=%v ProgramHit=%v", name, sname, r.Err, r.ProgramHit)
			}
			sameMetrics(t, name+"/"+sname, r.Metrics, freshMetrics(t, sibs[sname]))
		}
		if cachedText(t, e, base) != text {
			t.Fatalf("%s: concurrent simulation changed the cached program", name)
		}
	}
}

// programWaiters counts the jobs waiting on e's program flights, the
// jobs that started them included.
func programWaiters(e *Engine) int {
	e.pflights.mu.Lock()
	defer e.pflights.mu.Unlock()
	n := 0
	for _, f := range e.pflights.m {
		n += f.waiters
	}
	return n
}

// sharedCompile submits n concurrent jobs with one program key but
// distinct result keys. The compile's checkpoint holds it until all n
// wait on the program flight, then returns fail.
func sharedCompile(n int, fail error) (*Engine, []Result) {
	e := New(Config{Workers: n})
	var once sync.Once
	hold := func() error {
		once.Do(func() {
			for programWaiters(e) < n {
				time.Sleep(time.Millisecond)
			}
		})
		return fail
	}
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := coalesceJob()
			j.Opts.Ordering = compiler.OrderIUPO1
			j.Opts.Checkpoint = hold
			j.Args = []int64{int64(10 + i)}
			results[i] = e.Submit(context.Background(), j)
		}()
	}
	wg.Wait()
	return e, results
}

// TestProgramFlightSharesCompile: concurrent jobs with one program key
// share one compile, and every job but the one that started it reports
// a program hit.
func TestProgramFlightSharesCompile(t *testing.T) {
	const n = 6
	e, results := sharedCompile(n, nil)
	hits := 0
	for i, r := range results {
		if r.Err != nil || r.Coalesced {
			t.Fatalf("job %d: err=%v Coalesced=%v", i, r.Err, r.Coalesced)
		}
		if r.ProgramHit {
			hits++
		}
	}
	if hits != n-1 {
		t.Fatalf("%d of %d jobs report ProgramHit, want %d", hits, n, n-1)
	}
	if s := e.ProgramStats(); s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("program stats %+v, want 1 miss and %d hits", s, n-1)
	}
	if s := e.SkeletonStats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("skeleton stats %+v: the shared compile ran more than one greedy search", s)
	}
}

// TestProgramFlightFailedCompile: when the shared compile fails, every
// job gets its error and the tier counts no hits, since no job was
// served a program.
func TestProgramFlightFailedCompile(t *testing.T) {
	const n = 4
	boom := errors.New("injected compile failure")
	e, results := sharedCompile(n, boom)
	for i, r := range results {
		if !errors.Is(r.Err, boom) || r.ProgramHit {
			t.Fatalf("job %d: err=%v ProgramHit=%v, want the shared compile's error", i, r.Err, r.ProgramHit)
		}
	}
	if s := e.ProgramStats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("program stats %+v, want 1 miss, 0 hits, 0 entries", s)
	}
}

// TestProgramFlightWaiterLeaves: the job that started a compile may
// leave without killing it while another job still waits on it; once
// the last waiter leaves, the compile is canceled and nothing is
// published.
func TestProgramFlightWaiterLeaves(t *testing.T) {
	e := New(Config{Workers: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hold := func() error {
		once.Do(func() {
			close(started)
			<-release
		})
		return nil
	}
	job := func(arg int64) Job {
		j := coalesceJob()
		j.Opts.Checkpoint = hold
		j.Args = []int64{arg}
		return j
	}

	ctx, cancel := context.WithCancel(context.Background())
	starter := make(chan Result, 1)
	go func() { starter <- e.Submit(ctx, job(1)) }()
	<-started
	survivor := make(chan Result, 1)
	go func() { survivor <- e.Submit(context.Background(), job(2)) }()
	for programWaiters(e) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if r := <-starter; !errors.Is(r.Err, ErrCanceled) {
		t.Fatalf("starter error = %v, want ErrCanceled", r.Err)
	}
	close(release)
	r := <-survivor
	if r.Err != nil || !r.ProgramHit || r.Metrics.Form.Merges <= 0 {
		t.Fatalf("survivor: err=%v ProgramHit=%v metrics=%+v", r.Err, r.ProgramHit, r.Metrics)
	}
	if s := e.ProgramStats(); s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("program stats %+v, want the one compile published", s)
	}

	// A compile whose only waiter leaves is canceled at its next
	// checkpoint and never published.
	e = New(Config{Workers: 1})
	started, release, once = make(chan struct{}), make(chan struct{}), sync.Once{}
	ctx, cancel = context.WithCancel(context.Background())
	lone := make(chan Result, 1)
	go func() { lone <- e.Submit(ctx, job(3)) }()
	<-started
	e.pflights.mu.Lock()
	var f *flight[programOutcome]
	for _, f = range e.pflights.m {
	}
	e.pflights.mu.Unlock()
	cancel()
	if r := <-lone; !errors.Is(r.Err, ErrCanceled) {
		t.Fatalf("lone waiter error = %v, want ErrCanceled", r.Err)
	}
	close(release)
	<-f.done
	if !errors.Is(f.out.err, context.Canceled) {
		t.Fatalf("abandoned compile ended with %v, want context.Canceled", f.out.err)
	}
	if s := e.ProgramStats(); s.Entries != 0 {
		t.Fatalf("program stats %+v: an abandoned compile was published", s)
	}
}

// TestLRU: the tiers' memory layer holds its limit and evicts the
// least recently used entry.
func TestLRU(t *testing.T) {
	c := newLRU[int](programMemLimit)
	for i := range programMemLimit {
		c.put(fmt.Sprint(i), i)
	}
	c.get("0") // now most recently used
	c.put("new", -1)
	if _, ok := c.get("1"); ok {
		t.Error("least recently used entry survived eviction")
	}
	if v, ok := c.get("0"); !ok || v != 0 {
		t.Errorf("get(0) = %v, %v; want 0, true", v, ok)
	}
	if v, ok := c.get("new"); !ok || v != -1 {
		t.Errorf("get(new) = %v, %v; want -1, true", v, ok)
	}
	c.put("0", 7) // an update keeps one entry
	if v, _ := c.get("0"); v != 7 || c.len() != programMemLimit || c.order.Len() != programMemLimit {
		t.Errorf("after update: get(0) = %d, %d entries (%d ordered), want 7 and %d", v, c.len(), c.order.Len(), programMemLimit)
	}
}
