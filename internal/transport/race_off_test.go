//go:build !race

package transport

// raceEnabled: see race_on_test.go.
const raceEnabled = false
