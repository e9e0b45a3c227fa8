//go:build race

package engine

// raceEnabled reports a race-detector build, whose instrumentation changes
// what the compiler heap-allocates, so allocation counts mean nothing.
const raceEnabled = true
