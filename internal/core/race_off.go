//go:build !race

package core

// raceEnabled: see race_on.go.
const raceEnabled = false
