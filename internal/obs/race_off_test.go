//go:build !race

package obs

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
