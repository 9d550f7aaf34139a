package sched

import (
	"math/rand"

	"repro/internal/memsim"
)

// FaultScheduler extends Scheduler with seeded fault decisions: at each
// scheduling point it may elect to crash the chosen process, or to drop
// the response of its pending CAS, instead of stepping it normally. The
// driver (internal/harness) validates legality — a lost CAS requires a
// pending CAS that would succeed — and downgrades illegal decisions to
// ordinary steps, so a FaultScheduler never has to inspect machine state.
type FaultScheduler interface {
	Scheduler
	// NextFault picks the process to act on and the fault to inject;
	// FaultNone means an ordinary step. It replaces Next at every
	// scheduling point of a fault-aware driver.
	NextFault(ready []memsim.PID) (memsim.PID, memsim.FaultKind)
	// Vol is the volatility model crashes execute under.
	Vol() memsim.Volatility
}

// FaultInjecting wraps an inner scheduler with seeded random fault
// injection under a memsim.FaultPolicy budget: at each scheduling point,
// with the given probability and while budget remains, the process the
// inner scheduler picked suffers a fault drawn uniformly from the
// policy's enabled kinds. A decision consumes budget even when the driver
// downgrades it (an illegal lost CAS becomes a plain step), so a run
// injects at most Policy.Max faults. The whole decision stream is a pure
// function of (inner scheduler, policy, rate, seed). Its source comes from
// the pool Random draws from; Release returns it.
type FaultInjecting struct {
	inner Scheduler
	fp    memsim.FaultPolicy
	rate  float64
	rng   *rand.Rand
	used  int
}

var _ FaultScheduler = (*FaultInjecting)(nil)

// NewFaultInjecting returns a seeded fault-injecting wrapper around inner.
// rate is the per-scheduling-point fault probability in [0, 1].
func NewFaultInjecting(inner Scheduler, fp memsim.FaultPolicy, rate float64, seed int64) *FaultInjecting {
	return &FaultInjecting{inner: inner, fp: fp, rate: rate, rng: seeded(seed)}
}

// Release returns s's own source to the pool; the inner scheduler belongs
// to the caller and is left alone. s may not be used afterwards.
func (s *FaultInjecting) Release() { release(&s.rng) }

// Next implements Scheduler by delegating to the inner scheduler, so a
// FaultInjecting handed to a fault-unaware driver degrades to its inner
// schedule (and injects nothing).
func (s *FaultInjecting) Next(ready []memsim.PID) memsim.PID { return s.inner.Next(ready) }

// Vol implements FaultScheduler.
func (s *FaultInjecting) Vol() memsim.Volatility { return s.fp.Vol }

// Injected reports how many fault decisions the scheduler has made (the
// consumed budget, downgraded decisions included).
func (s *FaultInjecting) Injected() int { return s.used }

// NextFault implements FaultScheduler.
func (s *FaultInjecting) NextFault(ready []memsim.PID) (memsim.PID, memsim.FaultKind) {
	pid := s.inner.Next(ready)
	if !s.fp.Enabled() || s.used >= s.fp.Max || s.rng.Float64() >= s.rate {
		return pid, memsim.FaultNone
	}
	var kinds [2]memsim.FaultKind
	n := 0
	if s.fp.Kinds.Has(memsim.FaultCrash) {
		kinds[n] = memsim.FaultCrash
		n++
	}
	if s.fp.Kinds.Has(memsim.FaultLostCAS) {
		kinds[n] = memsim.FaultLostCAS
		n++
	}
	s.used++
	return pid, kinds[s.rng.Intn(n)]
}
