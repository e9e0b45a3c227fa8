//go:build !race

package engine

// raceEnabled reports a race-detector build (see race_on_test.go).
const raceEnabled = false
