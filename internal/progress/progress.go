// Package progress checks the two progress properties the paper analyzes
// (Section 2): wait-freedom — every procedure call completes within a
// bound B of its own steps regardless of scheduling — and termination —
// under fair scheduling with no crashes, every call completes.
//
// Wait-freedom is refuted by exhibiting a schedule under which one call
// exceeds the bound while the adversary suspends it mid-call and lets
// other processes run; it is supported (not proven — the checker is a
// falsifier) by failing to find such a schedule across adversarial
// strategies. Termination is checked by running the signaling workload
// (signal.Workload) on the generic harness under fair schedules and
// verifying that no call is starved of completion.
package progress

import (
	"errors"
	"fmt"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sched"
	"repro/internal/signal"
)

// WaitFreeReport is the outcome of a wait-freedom check.
type WaitFreeReport struct {
	// WaitFree is false if a counterexample schedule was found.
	WaitFree bool
	// Witness describes the violating call, if any.
	Witness string
	// MaxSteps is the largest per-call step count observed across all
	// strategies (a lower bound on the wait-freedom constant B).
	MaxSteps int
}

// CheckWaitFree stress-tests whether kind calls of alg complete within
// bound steps of the calling process, under adversarial interference. The
// probed call runs on waiter 0 (or on the signaler process for Signal
// probes); interference strategies include running the signaler or the
// crowd to completion first, signaling midway, and — the classic wait-
// freedom killer — suspending another process k steps into its own call
// and leaving it there while the probed call runs (a crashed process in
// the paper's terminology).
//
// All strategies share one deployment, rewound with Execution.Reset
// before each: a reset execution is indistinguishable from a fresh one.
func CheckWaitFree(alg signal.Algorithm, n, bound int, kind memsim.CallKind) (*WaitFreeReport, error) {
	rep := &WaitFreeReport{WaitFree: true}
	strategies := []string{
		"solo", "signal-first", "crowd-first", "signal-midway",
		"stall-1", "stall-2", "stall-3", "stall-4", "stall-5", "stall-8",
	}
	exec, err := alg.Deploy(n)
	if err != nil {
		return nil, fmt.Errorf("strategy %q: %w", strategies[0], err)
	}
	defer exec.Release()
	exec.RetainEvents(false) // the probes count steps and read no trace
	for _, strat := range strategies {
		exec.Reset()
		steps, err := probeCall(exec, n, bound, kind, strat)
		if err != nil {
			var exceeded *exceededError
			if errors.As(err, &exceeded) {
				rep.WaitFree = false
				rep.Witness = fmt.Sprintf("strategy %q: %s", strat, exceeded.Error())
				rep.MaxSteps = exceeded.steps
				return rep, nil
			}
			return nil, fmt.Errorf("strategy %q: %w", strat, err)
		}
		if steps > rep.MaxSteps {
			rep.MaxSteps = steps
		}
	}
	return rep, nil
}

type exceededError struct {
	pid   memsim.PID
	steps int
	bound int
}

func (e *exceededError) Error() string {
	return fmt.Sprintf("call by p%d took more than %d own steps (bound %d)", e.pid, e.steps, e.bound)
}

// probeCall runs one strategy on exec, a deployment in its initial state,
// and returns the probed call's own-step count.
func probeCall(exec *memsim.Execution, n, bound int, kind memsim.CallKind, strat string) (int, error) {
	const interferenceBudget = 10_000

	subject := memsim.PID(0)
	signaler := memsim.PID(n - 1)
	if kind == memsim.CallSignal {
		subject = signaler
	}
	staller := memsim.PID(0)
	if staller == subject {
		staller = 1
	}

	runOther := func(pid memsim.PID, k memsim.CallKind, max int) error {
		if _, err := exec.Invoke(pid, k, max); err != nil {
			return err
		}
		return nil
	}

	switch {
	case strat == "signal-first" && subject != signaler:
		if err := runOther(signaler, memsim.CallSignal, interferenceBudget); err != nil {
			return 0, err
		}
	case strat == "crowd-first":
		for i := 0; i < n-1; i++ {
			if pid := memsim.PID(i); pid != subject {
				if err := runOther(pid, memsim.CallPoll, interferenceBudget); err != nil {
					return 0, err
				}
			}
		}
	case len(strat) > 6 && strat[:6] == "stall-":
		// Suspend another waiter k steps into its Poll and leave it there
		// (equivalent to a crash mid-call).
		k := int(strat[6] - '0')
		if strat[6:] == "8" {
			k = 8
		}
		if err := exec.Start(staller, memsim.CallPoll); err != nil {
			return 0, err
		}
		for s := 0; s < k; s++ {
			if _, ok := exec.Pending(staller); !ok {
				break
			}
			if _, err := exec.Step(staller); err != nil {
				return 0, err
			}
		}
	}

	if err := exec.Start(subject, kind); err != nil {
		return 0, err
	}
	steps := 0
	signaled := strat == "signal-first" || subject == signaler
	for {
		if _, done := exec.CallEnded(subject); done {
			if _, err := exec.Finish(subject); err != nil {
				return 0, err
			}
			return steps, nil
		}
		if steps > bound {
			return steps, &exceededError{pid: subject, steps: steps, bound: bound}
		}
		// Interfere between the subject's steps.
		if strat == "signal-midway" && steps == bound/2 && !signaled {
			signaled = true
			if err := runOther(signaler, memsim.CallSignal, interferenceBudget); err != nil {
				return 0, err
			}
		}
		if _, err := exec.Step(subject); err != nil {
			return 0, err
		}
		steps++
	}
}

// TerminationReport is the outcome of a termination check.
type TerminationReport struct {
	// Terminating is false if some call failed to complete under a fair
	// schedule within the step budget.
	Terminating bool
	// Witness names the starved call, if any.
	Witness string
}

// CheckTerminating drives waiters and one signaler under fair (round-robin
// and seeded random) schedules and verifies every started call completes.
// A generous step budget separates starvation from slowness; algorithms
// that busy-wait for events that do occur under fairness pass.
func CheckTerminating(alg signal.Algorithm, n, maxSteps int, blocking bool) (*TerminationReport, error) {
	// Round robin, then seeds 1 and 2 on one random source rewound to
	// each (seed 0 stands for round robin).
	random := sched.NewRandom(1)
	defer random.Release()
	rr := sched.NewRoundRobin()
	defer rr.Release()
	for si, seed := range [...]int64{0, 1, 2} {
		var s sched.Scheduler = rr
		if seed != 0 {
			random.Seed(seed)
			s = random
		}
		ok, witness, err := terminationRun(alg, n, maxSteps, blocking, s)
		if err != nil {
			return nil, fmt.Errorf("scheduler %d: %w", si, err)
		}
		if !ok {
			return &TerminationReport{Terminating: false, Witness: witness}, nil
		}
	}
	return &TerminationReport{Terminating: true}, nil
}

// terminationRun drives every waiter (p0..p(n-2)) to a true Poll or a
// returned Wait and the signaler p(n-1) through one Signal, started once n
// accesses have been applied, under s within maxSteps accesses.
func terminationRun(alg signal.Algorithm, n, maxSteps int, blocking bool, s sched.Scheduler) (bool, string, error) {
	waiters := make([]memsim.PID, n-1)
	for i := range waiters {
		waiters[i] = memsim.PID(i)
	}
	w := signal.NewWorkload(alg, n, signal.Policy{
		Waiters:     waiters,
		Signalers:   []memsim.PID{memsim.PID(n - 1)},
		Blocking:    blocking,
		SignalAfter: n,
	})
	defer w.Release()
	_, err := harness.Run(harness.Config{
		Workload:  w,
		Scheduler: s,
		MaxSteps:  maxSteps,
		Sink:      w.Observe,
	})
	if err != nil && !errors.Is(err, harness.ErrBudget) {
		return false, "", err
	}
	if err := w.Err(); err != nil {
		return false, "", err
	}
	for i := 0; i < n; i++ {
		if !w.Finished(memsim.PID(i)) {
			return false, fmt.Sprintf("p%d did not complete within %d fair steps", i, maxSteps), nil
		}
	}
	return true, "", nil
}
