package main

import (
	"bufio"
	"context"
	"embed"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/sim/functional"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// The frozen references. grid.txt is cmd/experiments -all's output;
// refs.txt holds each program's result and output under its
// measurement arguments, from the basic-block (BB) ordering on the
// functional simulator; cells.txt holds, per grid and sweep cell, the
// compiled program text's hash and the simulator's cycle and block
// counts. All three are written by -regen-golden and never recomputed
// by a benchmark run, so a run checks the code under test against the
// commit that froze them.
//
//go:embed golden
var goldenFS embed.FS

const goldenDir = "golden"

// ref is one program's reference behaviour under one argument list.
type ref struct {
	Result  int64
	OutHash string
}

// cellRef is one cell's frozen compile and simulate outcome.
type cellRef struct {
	ProgHash      string
	Cycles, Block int64
}

// golden is the parsed reference set.
type golden struct {
	Grid  string
	Refs  map[string]ref     // key: refKey(prog, args)
	Cells map[string]cellRef // key: cell label
}

// refKey identifies a (program, arguments) reference.
func refKey(prog string, args []int64) string {
	if len(args) == 0 {
		return prog + " -"
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	return prog + " " + strings.Join(parts, ",")
}

// hashText is the 64-bit FNV-1a hash of s, in hex.
func hashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashOutput is the 64-bit FNV-1a hash of a program's printed values.
func hashOutput(out []int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadGolden parses the embedded references.
func loadGolden() (*golden, error) {
	g := &golden{Refs: map[string]ref{}, Cells: map[string]cellRef{}}
	grid, err := goldenFS.ReadFile(goldenDir + "/grid.txt")
	if err != nil {
		return nil, err
	}
	g.Grid = string(grid)
	err = eachLine("refs.txt", 4, func(f []string) error {
		res, err := strconv.ParseInt(f[2], 10, 64)
		g.Refs[f[0]+" "+f[1]] = ref{Result: res, OutHash: f[3]}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = eachLine("cells.txt", 4, func(f []string) error {
		cyc, err1 := strconv.ParseInt(f[2], 10, 64)
		blk, err2 := strconv.ParseInt(f[3], 10, 64)
		g.Cells[f[0]] = cellRef{ProgHash: f[1], Cycles: cyc, Block: blk}
		if err1 != nil {
			return err1
		}
		return err2
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// eachLine calls fn with the whitespace-separated fields of every
// non-comment line of a golden file, which must have exactly n fields.
func eachLine(name string, n int, fn func([]string) error) error {
	raw, err := goldenFS.ReadFile(goldenDir + "/" + name)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != n {
			return fmt.Errorf("golden/%s:%d: %d fields, want %d", name, line, len(f), n)
		}
		if err := fn(f); err != nil {
			return fmt.Errorf("golden/%s:%d: %w", name, line, err)
		}
	}
	return sc.Err()
}

// checkRef compares a program run against its reference, returning a
// mismatch description or "".
func (g *golden) checkRef(prog string, args []int64, result int64, out []int64) string {
	key := refKey(prog, args)
	want, ok := g.Refs[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no reference", key)
	case result != want.Result:
		return fmt.Sprintf("%s: result %d, reference %d", key, result, want.Result)
	case hashOutput(out) != want.OutHash:
		return fmt.Sprintf("%s: output hash %s, reference %s", key, hashOutput(out), want.OutHash)
	}
	return ""
}

// checkCell compares a cell's simulator counts (and, when progHash is
// not empty, its compiled program) against the frozen cell.
func (g *golden) checkCell(label, progHash string, m engine.Metrics) string {
	want, ok := g.Cells[label]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no reference cell", label)
	case progHash != "" && progHash != want.ProgHash:
		return fmt.Sprintf("%s: program hash %s, reference %s", label, progHash, want.ProgHash)
	case m.Cycles != want.Cycles || m.Blocks != want.Block:
		return fmt.Sprintf("%s: %d cycles / %d blocks, reference %d / %d",
			label, m.Cycles, m.Blocks, want.Cycles, want.Block)
	}
	return ""
}

// refInput is one (program, arguments) pair the references cover.
type refInput struct {
	ID     string
	Source string
	Args   []int64
}

// refInputs lists every (program, arguments) pair a workload checks:
// the micro kernels and SPEC proxies under their measurement
// arguments, every corpus program under serve-cold's arguments, and
// serve-hot's programs under each argument pair the hot-key profile
// draws.
func refInputs() ([]refInput, error) {
	var out []refInput
	for _, w := range workloads.Micro() {
		out = append(out, refInput{"micro/" + w.Name, w.Source, w.Args})
	}
	for _, w := range workloads.Spec() {
		out = append(out, refInput{"spec/" + w.Name, w.Source, w.Args})
	}
	c, err := buildCorpus()
	if err != nil {
		return nil, err
	}
	for i, p := range c.Programs {
		out = append(out, refInput{corpusID(i), p.Source, coldArgs})
	}
	for _, idx := range hotPrograms(c) {
		for a := int64(0); a < hotArgRange; a++ {
			for b := int64(0); b < hotArgRange; b++ {
				if a != coldArgs[0] || b != coldArgs[1] {
					out = append(out, refInput{corpusID(idx), c.Programs[idx].Source, []int64{a, b}})
				}
			}
		}
	}
	return out, nil
}

// basicBlockRun compiles src under the BB ordering and runs main on
// the functional simulator: the reference semantics.
func basicBlockRun(src string, args []int64) (int64, []int64, error) {
	res, err := compiler.Compile(src, compiler.Options{Ordering: compiler.OrderBB})
	if err != nil {
		return 0, nil, err
	}
	v, out, _, err := functional.RunProgram(res.Prog, "main", args...)
	return v, out, err
}

// compileCell compiles and simulates one cell through the public
// compiler and simulator entry points, without the engine: the
// reference path the traced cells are checked against.
func compileCell(j engine.Job) (string, engine.Metrics, error) {
	res, err := compiler.Compile(j.Source, j.Opts)
	if err != nil {
		return "", engine.Metrics{}, err
	}
	hash := hashText(ir.FormatProgram(res.Prog))
	var m engine.Metrics
	switch j.Sim {
	case engine.SimTiming:
		cfg := j.SimConfig
		if cfg.IssueWidth == 0 {
			cfg = timing.DefaultConfig()
		}
		mach := timing.New(res.Prog, cfg)
		m.Result, err = mach.RunContext(context.Background(), "main", j.Args...)
		m.Output, m.Cycles, m.Blocks = mach.Output, mach.Stats.Cycles, mach.Stats.Blocks
	case engine.SimFunctional:
		mach := functional.New(res.Prog)
		m.Result, err = mach.Run("main", j.Args...)
		m.Output, m.Blocks = mach.Output, mach.Stats.Blocks
	}
	return hash, m, err
}

// regenGolden recomputes every reference from the code at hand and
// writes them into the source tree's golden directory. See README.md
// for when that is legitimate.
func regenGolden(root string, logf func(string, ...any)) error {
	dir := filepath.Join(root, "bench", goldenDir)
	nproc := runtime.NumCPU()

	logf("regen: grid (cmd/experiments -all)")
	grid := runGrid(engine.New(engine.Config{Workers: nproc}), false)
	if grid.err != nil {
		return grid.err
	}
	if err := os.WriteFile(filepath.Join(dir, "grid.txt"), []byte(grid.text), 0o644); err != nil {
		return err
	}

	logf("regen: references (BB ordering, functional simulator)")
	inputs, err := refInputs()
	if err != nil {
		return err
	}
	refs := make([]ref, len(inputs))
	err = parallel(len(inputs), nproc, func(i int) error {
		in := inputs[i]
		v, out, err := basicBlockRun(in.Source, in.Args)
		refs[i] = ref{Result: v, OutHash: hashOutput(out)}
		if err != nil {
			return fmt.Errorf("%s: %w", refKey(in.ID, in.Args), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	g := &golden{Refs: map[string]ref{}}
	lines := make([]string, len(inputs))
	for i, in := range inputs {
		key := refKey(in.ID, in.Args)
		g.Refs[key] = refs[i]
		lines[i] = fmt.Sprintf("%s %d %s", key, refs[i].Result, refs[i].OutHash)
	}
	if err := writeLines(filepath.Join(dir, "refs.txt"),
		"# program args result output-hash (BB ordering, functional simulator)", lines); err != nil {
		return err
	}

	logf("regen: cells (compiler.Compile plus simulator, no engine)")
	cells := append(gridCells(false), sweepCells(false)...)
	lines = make([]string, len(cells))
	err = parallel(len(cells), nproc, func(i int) error {
		c := cells[i]
		hash, m, err := compileCell(c.Job)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Label, err)
		}
		if bad := g.checkRef(c.Prog, c.Job.Args, m.Result, m.Output); bad != "" {
			return fmt.Errorf("%s: compiled program disagrees with the BB reference: %s", c.Label, bad)
		}
		lines[i] = fmt.Sprintf("%s %s %d %d", c.Label, hash, m.Cycles, m.Blocks)
		return nil
	})
	if err != nil {
		return err
	}
	return writeLines(filepath.Join(dir, "cells.txt"),
		"# cell program-hash cycles blocks (compiler.Compile, then the cell's simulator)", lines)
}

// writeLines writes a header and the lines, sorted, one per line.
func writeLines(path, header string, lines []string) error {
	sort.Strings(lines)
	return os.WriteFile(path, []byte(header+"\n"+strings.Join(lines, "\n")+"\n"), 0o644)
}

// parallel runs fn(0..n-1) on the given number of goroutines and
// returns the first error.
func parallel(n, workers int, fn func(int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
