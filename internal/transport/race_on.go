//go:build race

package transport

// raceEnabled reports whether the race detector is instrumenting this
// binary: its shadow memory and lossy sync.Pool inflate every allocation
// count, so the allocation budget cannot hold under it, and landings are
// poisoned when handed back (see poisonLandings).
const raceEnabled = true
