//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in. The
// alloc assertion is skipped under it: race instrumentation allocates,
// so AllocsPerRun cannot pin a zero-alloc contract there.
const raceEnabled = true
