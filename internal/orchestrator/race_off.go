//go:build !race

package orchestrator

// raceEnabled reports whether the race detector is instrumenting this
// binary; the scalar loops, which it sees, then fold and commit.
const raceEnabled = false
