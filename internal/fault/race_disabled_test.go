//go:build !race

package fault

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
