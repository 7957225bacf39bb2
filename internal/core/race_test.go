//go:build race

package core_test

// raceEnabled reports a -race build. The workload property tests
// recompute whole-function analyses after every merge; under the race
// detector the six corpus programs alone take minutes, so the race
// build leaves them to the non-race runs.
const raceEnabled = true
