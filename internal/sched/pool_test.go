package sched

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// TestPooledSourceReplaysFresh checks that a scheduler on a recycled
// source makes the very choices of one on a new source of its seed,
// whatever the source drew before it was released.
func TestPooledSourceReplaysFresh(t *testing.T) {
	ready := pids(0, 1, 2, 3, 4, 5, 6)
	for seed := int64(1); seed <= 4; seed++ {
		used := NewRandom(seed + 100)
		for i := 0; i < 37; i++ {
			used.Next(ready)
		}
		used.Release()
		s, fresh := NewRandom(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if got, want := s.Next(ready), ready[fresh.Intn(len(ready))]; got != want {
				t.Fatalf("seed %d, choice %d: p%d, a fresh source picks p%d", seed, i, got, want)
			}
		}
		s.Release()
	}
}

// TestNewRandomReleaseAllocs checks that a warm NewRandom and Release
// allocate nothing: the source comes from the pool.
func TestNewRandomReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	var sink memsim.PID
	ready := pids(0, 1, 2)
	cycle := func() {
		s := NewRandom(7)
		sink += s.Next(ready)
		s.Release()
	}
	cycle() // warm the pool
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm NewRandom+Release allocates %v times, want 0", n)
	}
}

// TestNewRoundRobinReleaseAllocs checks that a warm NewRoundRobin and
// Release allocate nothing, and that a recycled round-robin scheduler
// starts its cycle over at the lowest ready PID.
func TestNewRoundRobinReleaseAllocs(t *testing.T) {
	ready := pids(0, 1, 2)
	used := NewRoundRobin()
	used.Next(ready)
	used.Next(ready)
	used.Release()
	s := NewRoundRobin()
	if p := s.Next(ready); p != 0 {
		t.Fatalf("a recycled scheduler's first pick is p%d, want p0", p)
	}
	s.Release()
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	var sink memsim.PID
	cycle := func() {
		s := NewRoundRobin()
		sink += s.Next(ready)
		s.Release()
	}
	cycle() // warm the pool
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm NewRoundRobin+Release allocates %v times, want 0", n)
	}
}
