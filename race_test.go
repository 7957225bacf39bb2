//go:build race

package repro

// raceEnabled reports a -race build. The sim-sweep pin simulates 576
// cells, so the race build runs it on raceSweepKernels only.
const raceEnabled = true
