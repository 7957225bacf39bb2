//go:build race

package engine

// raceEnabled reports a -race build. The program-tier differential
// costs about a thousand compiles, so the race build runs it on
// raceKernels only.
const raceEnabled = true
