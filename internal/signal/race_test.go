//go:build race

package signal

// raceEnabled reports a race-detector build, whose sync.Pool drops items
// at random.
const raceEnabled = true
