//go:build !race

package main

// raceEnabled reports whether the race detector is instrumenting this
// test binary. Wall-clock-threshold assertions relax under -race, whose
// 10-20x slowdown hits real compression time but not simulated transfer
// time.
const raceEnabled = false
