//go:build race

package search_test

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random.
const raceEnabled = true
