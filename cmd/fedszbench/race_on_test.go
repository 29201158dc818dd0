//go:build race

package main

// raceEnabled reports whether the race detector is instrumenting this
// test binary. See race_off_test.go.
const raceEnabled = true
