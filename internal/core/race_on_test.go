//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// test binary: under it sync.Pool drops entries at random, so the
// allocation gates cannot hold.
const raceEnabled = true
