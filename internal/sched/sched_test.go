package sched

import (
	"testing"

	"repro/internal/memsim"
)

func pids(xs ...int) []memsim.PID {
	out := make([]memsim.PID, len(xs))
	for i, x := range xs {
		out[i] = memsim.PID(x)
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin()
	ready := pids(0, 1, 2)
	var got []memsim.PID
	for i := 0; i < 6; i++ {
		got = append(got, s.Next(ready))
	}
	want := pids(0, 1, 2, 0, 1, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsMissing(t *testing.T) {
	s := NewRoundRobin()
	if p := s.Next(pids(1, 3)); p != 1 {
		t.Fatalf("first = %d, want 1", p)
	}
	if p := s.Next(pids(1, 3)); p != 3 {
		t.Fatalf("second = %d, want 3", p)
	}
	if p := s.Next(pids(1, 3)); p != 1 {
		t.Fatalf("wrap = %d, want 1", p)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a := NewRandom(42)
	b := NewRandom(42)
	ready := pids(0, 1, 2, 3, 4)
	for i := 0; i < 50; i++ {
		if a.Next(ready) != b.Next(ready) {
			t.Fatal("same seed should give the same schedule")
		}
	}
}

func TestRandomIsFairOverReady(t *testing.T) {
	s := NewRandom(7)
	ready := pids(0, 1, 2)
	seen := map[memsim.PID]int{}
	for i := 0; i < 300; i++ {
		seen[s.Next(ready)]++
	}
	for _, p := range ready {
		if seen[p] == 0 {
			t.Fatalf("process %d never scheduled in 300 draws", p)
		}
	}
}
