//go:build !race

package timing_test

const raceEnabled = false
