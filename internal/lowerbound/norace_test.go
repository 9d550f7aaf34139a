//go:build !race

package lowerbound

const raceEnabled = false
