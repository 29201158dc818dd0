//go:build race

package transport

// raceEnabled reports whether the race detector is instrumenting this
// test binary: its shadow memory and lossy sync.Pool inflate every
// allocation count, so the allocation budget cannot hold under it.
const raceEnabled = true
