//go:build !race

package stats

// raceEnabled reports whether the race detector is instrumenting this
// binary; the scalar loop, which it sees, then scans.
const raceEnabled = false
