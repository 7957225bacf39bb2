package timing_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/fuzz"
	"repro/internal/ir"
	"repro/internal/sim/timing"
	"repro/internal/workloads"
)

// corpusPrograms is how many programs of the generated corpus
// (fuzz.Generate(1+i), as the serving benchmarks build it) the operand
// scan test compiles; a -race build compiles fewer.
func corpusPrograms() int {
	if raceEnabled {
		return 16
	}
	return 512
}

// TestOperandScanMatchesUses checks that the simulator's operand scan,
// which reads an instruction's operands in place, visits exactly the
// registers Instr.Uses lists, in the same order, for every instruction
// of the micro kernels under BB and (IUPO) and of the generated
// corpus. The scan keeps the first operand among those that arrive
// last, so the test recovers the order it visits: with every use
// arriving at the same cycle, the first visited wins; that one is then
// made early and the scan asked again. Every other register arrives
// one cycle later, so a scan that read a register Uses does not list
// would name it.
func TestOperandScanMatchesUses(t *testing.T) {
	type source struct {
		name, src string
		opts      compiler.Options
	}
	var srcs []source
	for _, w := range workloads.Micro() {
		for _, ord := range []compiler.Ordering{compiler.OrderBB, compiler.OrderIUPO1} {
			srcs = append(srcs, source{w.Name + "/" + string(ord), w.Source,
				compiler.Options{Ordering: ord, ProfileFn: "main", ProfileArgs: w.TrainArgs}})
		}
	}
	for i := range corpusPrograms() {
		srcs = append(srcs, source{fmt.Sprintf("corpus/%d", i), fuzz.Generate(int64(1+i), fuzz.GenConfig{}), compiler.Options{}})
	}
	for _, s := range srcs {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			res, err := compiler.Compile(s.src, s.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Prog.Funcs {
				for _, b := range f.Blocks {
					for i, in := range b.Instrs {
						if err := checkScan(in, f.NumRegs()); err != nil {
							t.Fatalf("%s.%s #%d %s: %v", f.Name, b.Name, i, ir.FormatInstr(in), err)
						}
					}
				}
			}
		})
	}
}

// checkScan compares the order in which OperandsReady visits in's
// operands with Instr.Uses.
func checkScan(in *ir.Instr, nregs int) error {
	const base, last = 10, 20
	var want []ir.Reg
	for _, r := range in.Uses(nil) {
		if !slices.Contains(want, r) {
			want = append(want, r)
		}
	}
	time := make([]int64, nregs)
	for r := range time {
		time[r] = last + 1
	}
	for _, r := range want {
		time[r] = last
	}
	for _, r := range want {
		if ready, waits := timing.OperandsReady(in, time, base); ready != last || waits != r {
			return fmt.Errorf("scan waits on %s at %d, want %s at %d (uses %v)", waits, ready, r, last, want)
		}
		time[r] = 0
	}
	if ready, waits := timing.OperandsReady(in, time, base); ready != base || waits != ir.NoReg {
		return fmt.Errorf("scan waits on %s at %d after every use arrived early (uses %v)", waits, ready, want)
	}
	return nil
}
