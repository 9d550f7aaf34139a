//go:build race

package model_test

// raceEnabled reports a race-detector build, whose instrumented compiler
// allocates the zeroed rows of append(s, make([]T, n)...) instead of
// extending s in place.
const raceEnabled = true
