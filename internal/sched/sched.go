// Package sched provides schedulers for driving simulated executions:
// deterministic round-robin and seeded pseudo-random (the workhorse for
// randomized safety testing). Fairness in the paper's sense — every
// participating process keeps taking steps — holds for both over
// non-terminated processes.
package sched

import (
	"math/rand"
	"sync"

	"repro/internal/memsim"
)

// sources recycles the schedulers' PRNG sources, about 5 KB each.
var sources = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seeded returns a pooled source seeded with seed. Seeding rewinds a
// source completely, so it replays the sequence of a new source of that
// seed whatever it produced before.
func seeded(seed int64) *rand.Rand {
	r := sources.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Scheduler picks the next process to step among those that are ready.
// ready is never empty and is sorted by PID. Callers reuse its storage
// from step to step, so Next must not retain it.
type Scheduler interface {
	Next(ready []memsim.PID) memsim.PID
}

// RoundRobin steps processes in cyclic PID order.
type RoundRobin struct {
	last memsim.PID
}

var _ Scheduler = (*RoundRobin)(nil)

// roundRobins recycles round-robin schedulers (see Release).
var roundRobins = sync.Pool{New: func() any { return new(RoundRobin) }}

// NewRoundRobin returns a round-robin scheduler at the start of its
// cycle. It comes from a pool; Release returns it once it is done.
func NewRoundRobin() *RoundRobin {
	s := roundRobins.Get().(*RoundRobin)
	s.last = -1
	return s
}

// Release returns s to the pool NewRoundRobin draws from. s may not be
// used afterwards.
func (s *RoundRobin) Release() { roundRobins.Put(s) }

// Next implements Scheduler.
func (s *RoundRobin) Next(ready []memsim.PID) memsim.PID {
	for _, pid := range ready {
		if pid > s.last {
			s.last = pid
			return pid
		}
	}
	s.last = ready[0]
	return ready[0]
}

// Random picks uniformly at random with a fixed seed, yielding
// deterministic yet adversarially unstructured interleavings. Its source
// comes from a pool; Release returns it once the scheduler is done.
type Random struct {
	rng *rand.Rand
}

var _ Scheduler = (*Random)(nil)

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random { return &Random{rng: seeded(seed)} }

// Seed rewinds s to the state NewRandom(seed) starts in, so a kept
// scheduler replays the very sequence a new one would, without allocating
// another source.
func (s *Random) Seed(seed int64) { s.rng.Seed(seed) }

// Next implements Scheduler.
func (s *Random) Next(ready []memsim.PID) memsim.PID {
	return ready[s.rng.Intn(len(ready))]
}

// Release returns s's source to the pool NewRandom draws from. s may not
// be used afterwards.
func (s *Random) Release() {
	sources.Put(s.rng)
	s.rng = nil
}
