//go:build !race

package transport

// raceEnabled: see race_on.go.
const raceEnabled = false
