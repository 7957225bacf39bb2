//go:build race

package timing_test

// raceEnabled reports a -race build, where the operand scan test
// compiles a slice of the corpus only.
const raceEnabled = true
