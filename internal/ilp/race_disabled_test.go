//go:build !race

package ilp_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
