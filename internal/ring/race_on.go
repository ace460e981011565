//go:build race

package ring

// raceEnabled reports whether the race detector is compiled in. Under it
// the exact-size pools poison every polynomial they hand out or take back
// (GetPoly, PutPoly), so the race steps' goldens fail on an op that reads
// its output before writing it or on a read after release. Alloc
// assertions are skipped under it: race instrumentation allocates, and
// sync.Pool deliberately drops items at random in race mode, so
// AllocsPerRun cannot pin a zero-alloc contract there.
const raceEnabled = true
