//go:build race

package core

// raceEnabled reports whether the race detector is instrumenting this
// binary: sync.Pool then drops entries at random, so the allocation
// gates cannot hold, and lent scratch is poisoned (see poisonLent).
const raceEnabled = true
