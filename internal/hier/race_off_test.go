//go:build !race

package hier

// raceEnabled: see race_on_test.go.
const raceEnabled = false
