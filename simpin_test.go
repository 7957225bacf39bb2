package repro

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/compiler"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// sweepConfigs is the sim-sweep workload's list of single-knob timing
// configurations, copied from bench/batch.go (the benchmark module is
// read, never imported): DefaultConfig plus one knob moved.
var sweepConfigs = []struct {
	name string
	set  func(*timing.Config)
}{
	{"default", func(*timing.Config) {}},
	{"inflight2", func(c *timing.Config) { c.MaxInflight = 2 }},
	{"inflight4", func(c *timing.Config) { c.MaxInflight = 4 }},
	{"issue4", func(c *timing.Config) { c.IssueWidth = 4 }},
	{"issue8", func(c *timing.Config) { c.IssueWidth = 8 }},
	{"fetch4", func(c *timing.Config) { c.FetchCycles = 4 }},
	{"fetch16", func(c *timing.Config) { c.FetchCycles = 16 }},
	{"mispredict6", func(c *timing.Config) { c.MispredictPenalty = 6 }},
	{"mispredict24", func(c *timing.Config) { c.MispredictPenalty = 24 }},
	{"nocache", func(c *timing.Config) { c.CacheLines = 0 }},
	{"cache64", func(c *timing.Config) { c.CacheLines = 64 }},
	{"history2", func(c *timing.Config) { c.HistoryLen = 2 }},
}

// sweepOrderings are the sim-sweep workload's two orderings.
var sweepOrderings = []compiler.Ordering{compiler.OrderBB, compiler.OrderIUPO1}

// raceSweepKernels are the micro kernels the sweep pin simulates in a
// -race build, where all 24 would take minutes.
var raceSweepKernels = []string{"vadd", "gzip_1", "dhry"}

// sweepCell is one sim-sweep cell's frozen outcome in
// bench/golden/cells.txt.
type sweepCell struct {
	progHash       string
	cycles, blocks int64
}

// readSweepCells parses the sim-sweep cells of the benchmark's golden
// cell file, keyed by cell label ("sweep/<kernel>/<ordering>/<config>").
func readSweepCells(t *testing.T) map[string]sweepCell {
	t.Helper()
	f, err := os.Open("bench/golden/cells.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := map[string]sweepCell{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 || !strings.HasPrefix(fields[0], "sweep/") {
			continue
		}
		cyc, err1 := strconv.ParseInt(fields[2], 10, 64)
		blk, err2 := strconv.ParseInt(fields[3], 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			t.Fatalf("cells.txt: %q: %v", sc.Text(), err)
		}
		cells[fields[0]] = sweepCell{progHash: fields[1], cycles: cyc, blocks: blk}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells
}

// hashText is the 64-bit FNV-1a hash of s in hex, as cells.txt
// records program texts.
func hashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// sweepStatsDigests pins, per kernel and ordering, the FNV-1a digest
// of the result, the output and the full timing.Stats vector under
// each of the twelve sweep configurations, in sweepConfigs order.
// cells.txt pins only cycles and blocks; these pin every other
// counter. They were captured from the simulator that still kept a
// per-instruction watchdog trail.
var sweepStatsDigests = map[string]string{
	"ammp_1|(IUPO)":         "05a6645f1eca8ca1",
	"ammp_1|BB":             "b16eac7454170860",
	"ammp_2|(IUPO)":         "11952668fc50260d",
	"ammp_2|BB":             "b044aef441beaee9",
	"art_1|(IUPO)":          "539d7ba1c9599816",
	"art_1|BB":              "389ed7bdc6cf7fb3",
	"art_2|(IUPO)":          "75ed12d20bf537ef",
	"art_2|BB":              "bce68b63d99b51bc",
	"art_3|(IUPO)":          "a941580f06f12343",
	"art_3|BB":              "f25806d1600ea12f",
	"bzip2_1|(IUPO)":        "589bc1706c274971",
	"bzip2_1|BB":            "f61839be9a602598",
	"bzip2_2|(IUPO)":        "5779e5df08a32473",
	"bzip2_2|BB":            "bd59e1fab10f9baa",
	"bzip2_3|(IUPO)":        "8bfdfeca1fa749ee",
	"bzip2_3|BB":            "0780618ec2a4fe6d",
	"dct8x8|(IUPO)":         "db74f060ea9708b2",
	"dct8x8|BB":             "c9a4076970e5e7f6",
	"dhry|(IUPO)":           "6ddc3fba1bb96452",
	"dhry|BB":               "a5c987c81acb8a75",
	"doppler_gmti|(IUPO)":   "6bcf20eab8e143bf",
	"doppler_gmti|BB":       "913989c658d0ee79",
	"equake_1|(IUPO)":       "4985346d60dc51a9",
	"equake_1|BB":           "f655b24ddc72c9a8",
	"fft2_gmti|(IUPO)":      "41de0c8b85ced662",
	"fft2_gmti|BB":          "8921fdaf21d5a102",
	"fft4_gmti|(IUPO)":      "2ecb7ab9cb75dec0",
	"fft4_gmti|BB":          "ddc414c138b39b34",
	"forward_gmti|(IUPO)":   "eeaf9f0d0dea69b3",
	"forward_gmti|BB":       "4f0823ac485ab250",
	"gzip_1|(IUPO)":         "672460fe4b0d3e21",
	"gzip_1|BB":             "c8d0db89e1ed8d20",
	"gzip_2|(IUPO)":         "fc12891f064434f9",
	"gzip_2|BB":             "5d61ff4fef4abf0c",
	"matrix_1|(IUPO)":       "513b355757096eb3",
	"matrix_1|BB":           "6126bd165d4aac82",
	"parser_1|(IUPO)":       "a3e99973462051e2",
	"parser_1|BB":           "e2d1b3030891eff2",
	"sieve|(IUPO)":          "f774518a4b6802ed",
	"sieve|BB":              "591381856527e28f",
	"transpose_gmti|(IUPO)": "407f429f07889939",
	"transpose_gmti|BB":     "ef51be5faf0641d0",
	"twolf_1|(IUPO)":        "48347e75030a9d18",
	"twolf_1|BB":            "12b84fa2496b67e6",
	"twolf_3|(IUPO)":        "3deb76a774c6d978",
	"twolf_3|BB":            "d94f639050e8ea72",
	"vadd|(IUPO)":           "db35a39e79513c9c",
	"vadd|BB":               "0320d966f5de0e38",
}

// TestSimSweepCellsPinned compiles every micro kernel under BB and
// (IUPO) once and simulates each program under all twelve sim-sweep
// configurations: cycles, blocks and the program text must equal
// bench/golden/cells.txt, and the remaining statistics their digest.
func TestSimSweepCellsPinned(t *testing.T) {
	cells := readSweepCells(t)
	if want := len(workloads.Micro()) * len(sweepOrderings) * len(sweepConfigs); len(cells) != want {
		t.Fatalf("cells.txt has %d sweep cells, want %d", len(cells), want)
	}
	micro := workloads.Micro()
	for i := range micro {
		w := &micro[i]
		if raceEnabled && !slices.Contains(raceSweepKernels, w.Name) {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			for _, ord := range sweepOrderings {
				res, err := compiler.Compile(w.Source, compiler.Options{
					Ordering: ord, ProfileFn: "main", ProfileArgs: w.TrainArgs,
				})
				if err != nil {
					t.Fatalf("%s: %v", ord, err)
				}
				progHash := hashText(ir.FormatProgram(res.Prog))
				digest := fnv.New64a()
				for _, sc := range sweepConfigs {
					label := "sweep/" + w.Name + "/" + string(ord) + "/" + sc.name
					want, ok := cells[label]
					if !ok {
						t.Fatalf("%s: not in cells.txt", label)
					}
					cfg := timing.DefaultConfig()
					sc.set(&cfg)
					m := timing.New(res.Prog, cfg)
					v, err := m.Run("main", w.Args...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if progHash != want.progHash || m.Stats.Cycles != want.cycles || m.Stats.Blocks != want.blocks {
						t.Errorf("%s: program %s, %d cycles, %d blocks; cells.txt %s, %d, %d",
							label, progHash, m.Stats.Cycles, m.Stats.Blocks,
							want.progHash, want.cycles, want.blocks)
					}
					fmt.Fprintf(digest, "%s %d %v %+v\n", sc.name, v, m.Output, m.Stats)
				}
				key := w.Name + "|" + string(ord)
				if got := fmt.Sprintf("%016x", digest.Sum64()); got != sweepStatsDigests[key] {
					t.Errorf("%q: %q, pinned %q", key, got, sweepStatsDigests[key])
				}
			}
		})
	}
}

// chaosFaultPins pins, per kernel and seed, the cycles and the
// per-class fault counts of each of chaos.Plans(seed, 4) on the
// kernel's (IUPO) program and training arguments: "cycles fetch-stalls
// hop-jitters commit-delays forced-mispredicts extra-cycles", one run
// per plan, joined by "; ".
var chaosFaultPins = map[string]string{
	"sieve|1":    "26429 0 0 0 67 0; 25471 9 0 0 0 152; 25418 0 0 19 0 365; 34920 0 17076 0 0 59522",
	"sieve|2":    "25995 0 0 0 44 0; 25451 8 0 0 0 88; 25418 0 0 61 0 267; 31261 0 8572 0 0 34329",
	"sieve|3":    "27443 0 0 0 119 0; 25464 30 0 0 0 245; 25418 0 0 118 0 1278; 26246 0 2126 0 0 5303",
	"sieve|4":    "25569 0 0 0 8 0; 25426 40 0 0 0 40; 25418 0 0 8 0 20; 27666 0 4334 0 0 12928",
	"parser_1|1": "14804 0 0 0 52 0; 14430 15 0 0 0 298; 14465 0 0 15 0 295; 17795 0 22074 0 0 77144",
	"parser_1|2": "15000 0 0 0 55 0; 14400 7 0 0 0 99; 14410 0 0 64 0 286; 16436 0 11014 0 0 43661",
	"parser_1|3": "15534 0 0 0 111 0; 14391 27 0 0 0 276; 14556 0 0 114 0 1343; 14649 0 2694 0 0 6753",
	"parser_1|4": "14457 0 0 0 10 0; 14389 58 0 0 0 58; 14387 0 0 11 0 29; 15149 0 5624 0 0 17082",
}

// TestChaosFaultsPinned replays the seeded fault plans on two kernels
// and checks that every injection point fires as often, and costs as
// many cycles, as when the pins were captured.
func TestChaosFaultsPinned(t *testing.T) {
	for _, name := range []string{"sieve", "parser_1"} {
		w, err := workloads.ByName(workloads.Micro(), name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compiler.Compile(w.Source, compiler.Options{
			Ordering: compiler.OrderIUPO1, ProfileFn: "main", ProfileArgs: w.TrainArgs,
		})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			var runs []string
			for _, p := range chaos.Plans(seed, 4) {
				m := timing.New(res.Prog, timing.DefaultConfig())
				m.Inject = p
				if _, err := m.Run("main", w.TrainArgs...); err != nil {
					t.Fatalf("%s seed %d %s: %v", name, seed, p.Name(), err)
				}
				f := m.Stats.Faults
				runs = append(runs, fmt.Sprintf("%d %d %d %d %d %d", m.Stats.Cycles,
					f.FetchStalls, f.HopJitters, f.CommitDelays, f.ForcedMispredicts, f.ExtraCycles))
			}
			key := fmt.Sprintf("%s|%d", name, seed)
			if got := strings.Join(runs, "; "); got != chaosFaultPins[key] {
				t.Errorf("%q: %q, pinned %q", key, got, chaosFaultPins[key])
			}
		}
	}
}

// commitDelayAt is one enormous commit delay at a single block
// execution, every other site clean.
type commitDelayAt struct {
	seq, delay int64
}

func (c commitDelayAt) FetchStall(timing.Site) int64     { return 0 }
func (c commitDelayAt) HopJitter(timing.Site, int) int64 { return 0 }
func (c commitDelayAt) ForceMispredict(timing.Site) bool { return false }
func (c commitDelayAt) CommitDelay(s timing.Site) int64 {
	if s.Seq == c.seq {
		return c.delay
	}
	return 0
}

// The watchdog scenarios' programs: the timing package's dependence
// chain and counting loop, the chaos package's branchy loop, and a
// planted livelock whose loop condition never changes.
const (
	chainSrc = `
func main(n) {
  var a = n * 3;
  var b = a * a;
  var c = b + n;
  return c;
}`
	countSrc = `
func main(n) {
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}`
	branchySrc = `
func main(n) {
  var s = 0;
  var x = 12345;
  for (var i = 0; i < n; i = i + 1) {
    x = (x * 48271) % 2147483647;
    if ((x >> 5) & 1) { s = s + i; } else { s = s - 1; }
    if (i % 7 == 0) { print(s); }
  }
  return s;
}`
	livelockSrc = `
func step(x) { return (x * 3 + 1) % 1000; }
func main(n) {
  var s = 0;
  while (n > 0) { s = step(s) + n; }
  return s;
}`
)

// stuckScenario is one watchdog trip on a fresh machine.
type stuckScenario struct {
	name   string
	src    string
	arg    int64
	cfg    func(*timing.Config)
	inject timing.Injector
}

var stuckScenarios = []stuckScenario{
	{name: "commit-gap/chain", src: chainSrc, arg: 7,
		inject: commitDelayAt{seq: 0, delay: timing.DefaultWatchdogGap + 5}},
	{name: "commit-gap/in-flight", src: countSrc, arg: 50,
		inject: commitDelayAt{seq: 6, delay: timing.DefaultWatchdogGap + 1}},
	{name: "cycle-budget/count", src: countSrc, arg: 1_000_000,
		cfg: func(c *timing.Config) { c.MaxCycles = 200 }},
	{name: "commit-gap/chaos-plan", src: branchySrc, arg: 50,
		cfg:    func(c *timing.Config) { c.WatchdogGap = 500 },
		inject: chaos.Plan{Seed: 9, CommitDelayRate: 1024, MaxCommitDelay: 4000}},
	{name: "cycle-budget/livelock", src: livelockSrc, arg: 1,
		cfg: func(c *timing.Config) { c.MaxCycles = 20_000 }},
	{name: "commit-gap/livelock-callee", src: livelockSrc, arg: 1,
		inject: commitDelayAt{seq: 42, delay: timing.DefaultWatchdogGap + 3}},
	{name: "commit-gap/livelock-caller", src: livelockSrc, arg: 1,
		inject: commitDelayAt{seq: 41, delay: timing.DefaultWatchdogGap + 3}},
}

// stuckPins pins each scenario's StuckReport.Format() and the tripping
// machine's Stats.
var stuckPins = map[string]string{
	"commit-gap/chain": `watchdog: no commit for 1000033 cycles (bound 1000000) at main.entry (block #0): last commit 0, stuck commit 1000033, 0 in flight, 5 stalled
  stalled: #4 ret dst=- waits on v4 ready=24 complete=25
  stalled: #3 add dst=v4 waits on v3 ready=22 complete=23
  stalled: #2 mul dst=v3 waits on v1 ready=18 complete=21
  stalled: #1 mul dst=v1 waits on v2 ready=14 complete=17
  stalled: #0 const dst=v2 waits on - ready=12 complete=13
stats: {Cycles:0 Blocks:1 Executed:5 Fetched:5 ExitLookups:0 Mispredicts:0 Flushes:0 CacheAccesses:0 CacheMisses:0 Calls:1 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:1 ForcedMispredicts:0 ExtraCycles:1000005}}
`,
	"commit-gap/in-flight": `watchdog: no commit for 1000007 cycles (bound 1000000) at main.for.post3 (block #6): last commit 74, stuck commit 1000081, 6 in flight, 3 stalled
  in flight: main.entry commit=16
  in flight: main.for.head1 commit=22
  in flight: main.for.body2 commit=43
  in flight: main.for.post3 commit=49
  in flight: main.for.head1 commit=53
  in flight: main.for.body2 commit=74
  stalled: #2 br dst=- waits on - ready=74 complete=75
  stalled: #1 add dst=v2 waits on v4 ready=76 complete=77
  stalled: #0 const dst=v4 waits on - ready=74 complete=75
stats: {Cycles:74 Blocks:7 Executed:17 Fetched:19 ExitLookups:2 Mispredicts:2 Flushes:2 CacheAccesses:0 CacheMisses:0 Calls:1 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:1 ForcedMispredicts:0 ExtraCycles:1000001}}
`,
	"cycle-budget/count": `watchdog: cycle budget 200 exceeded at main.for.post3 (block #18): last commit 198, stuck commit 204, 8 in flight, 3 stalled
  in flight: main.for.head1 commit=115
  in flight: main.for.body2 commit=136
  in flight: main.for.post3 commit=142
  in flight: main.for.head1 commit=146
  in flight: main.for.body2 commit=167
  in flight: main.for.post3 commit=173
  in flight: main.for.head1 commit=177
  in flight: main.for.body2 commit=198
  stalled: #2 br dst=- waits on - ready=198 complete=199
  stalled: #1 add dst=v2 waits on v4 ready=200 complete=201
  stalled: #0 const dst=v4 waits on - ready=198 complete=199
stats: {Cycles:198 Blocks:19 Executed:45 Fetched:51 ExitLookups:6 Mispredicts:6 Flushes:6 CacheAccesses:0 CacheMisses:0 Calls:1 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:0 ForcedMispredicts:0 ExtraCycles:0}}
`,
	"commit-gap/chaos-plan": `watchdog: no commit for 2969 cycles (bound 500) at main.entry (block #0): last commit 0, stuck commit 2969, 0 in flight, 4 stalled
  stalled: #3 br dst=- waits on - ready=12 complete=13
  stalled: #2 const dst=v3 waits on - ready=12 complete=13
  stalled: #1 const dst=v2 waits on - ready=12 complete=13
  stalled: #0 const dst=v1 waits on - ready=12 complete=13
stats: {Cycles:0 Blocks:1 Executed:4 Fetched:4 ExitLookups:0 Mispredicts:0 Flushes:0 CacheAccesses:0 CacheMisses:0 Calls:1 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:1 ForcedMispredicts:0 ExtraCycles:2953}}
`,
	"cycle-budget/livelock": `watchdog: cycle budget 20000 exceeded at step.entry (block #2595): last commit 19985, stuck commit 20002, 8 in flight, 2 stalled
  in flight: main.while.body2 commit=19936
  in flight: main.while.head1 commit=19939
  in flight: step.entry commit=19956
  in flight: main.while.body2 commit=19959
  in flight: main.while.head1 commit=19962
  in flight: step.entry commit=19979
  in flight: main.while.body2 commit=19982
  in flight: main.while.head1 commit=19985
  stalled: #6 ret dst=- waits on v1 ready=19998 complete=19999
  stalled: #5 rem dst=v1 waits on v2 ready=19985 complete=19997
stats: {Cycles:19985 Blocks:2596 Executed:11245 Fetched:12112 ExitLookups:865 Mispredicts:7 Flushes:7 CacheAccesses:0 CacheMisses:0 Calls:866 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:0 ForcedMispredicts:0 ExtraCycles:0}}
`,
	"commit-gap/livelock-callee": `watchdog: no commit for 1000020 cycles (bound 1000000) at step.entry (block #42): last commit 412, stuck commit 1000432, 8 in flight, 2 stalled
  in flight: main.while.body2 commit=363
  in flight: main.while.head1 commit=366
  in flight: step.entry commit=383
  in flight: main.while.body2 commit=386
  in flight: main.while.head1 commit=389
  in flight: step.entry commit=406
  in flight: main.while.body2 commit=409
  in flight: main.while.head1 commit=412
  stalled: #6 ret dst=- waits on v1 ready=425 complete=426
  stalled: #5 rem dst=v1 waits on v2 ready=412 complete=424
stats: {Cycles:412 Blocks:43 Executed:182 Fetched:198 ExitLookups:14 Mispredicts:7 Flushes:7 CacheAccesses:0 CacheMisses:0 Calls:15 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:1 ForcedMispredicts:0 ExtraCycles:1000003}}
`,
	"commit-gap/livelock-caller": `watchdog: no commit for 1000006 cycles (bound 1000000) at main.while.body2 (block #41): last commit 429, stuck commit 1000435, 8 in flight, 0 stalled
  in flight: main.while.head1 commit=366
  in flight: step.entry commit=383
  in flight: main.while.body2 commit=386
  in flight: main.while.head1 commit=389
  in flight: step.entry commit=406
  in flight: main.while.body2 commit=409
  in flight: main.while.head1 commit=412
  in flight: step.entry commit=429
stats: {Cycles:429 Blocks:43 Executed:184 Fetched:198 ExitLookups:14 Mispredicts:7 Flushes:7 CacheAccesses:0 CacheMisses:0 Calls:15 Faults:{FetchStalls:0 HopJitters:0 CommitDelays:1 ForcedMispredicts:0 ExtraCycles:1000003}}
`,
}

// TestStuckReportsPinned trips the watchdog in every scenario on a
// fresh machine and checks the full report, stalled instructions
// included, and the partial run's statistics.
func TestStuckReportsPinned(t *testing.T) {
	for _, sc := range stuckScenarios {
		prog, err := lang.Compile(sc.src)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		cfg := timing.DefaultConfig()
		if sc.cfg != nil {
			sc.cfg(&cfg)
		}
		m := timing.New(prog, cfg)
		m.Inject = sc.inject
		_, err = m.Run("main", sc.arg)
		var se *timing.StuckError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want a *StuckError", sc.name, err)
		}
		got := fmt.Sprintf("%sstats: %+v\n", se.Report.Format(), m.Stats)
		if got != stuckPins[sc.name] {
			t.Errorf("%q:\n%s\npinned:\n%s", sc.name, got, stuckPins[sc.name])
		}
	}
}
