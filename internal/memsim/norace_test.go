//go:build !race

package memsim

const raceEnabled = false
