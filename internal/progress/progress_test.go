package progress

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// TestFlagWaitFree: the Section 5 algorithm is wait-free for both Poll and
// Signal — the paper's headline upper-bound property.
func TestFlagWaitFree(t *testing.T) {
	for _, kind := range []memsim.CallKind{memsim.CallPoll, memsim.CallSignal} {
		rep, err := CheckWaitFree(signal.Flag(), 6, 16, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.WaitFree {
			t.Fatalf("%v should be wait-free: %s", kind, rep.Witness)
		}
		if rep.MaxSteps > 2 {
			t.Errorf("%v took %d steps, want <= 2", kind, rep.MaxSteps)
		}
	}
}

// TestSingleWaiterWaitFree: the Section 7 single-waiter algorithm is
// wait-free in its own variant.
func TestSingleWaiterWaitFree(t *testing.T) {
	for _, kind := range []memsim.CallKind{memsim.CallPoll, memsim.CallSignal} {
		rep, err := CheckWaitFree(signal.SingleWaiter(), 2, 16, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.WaitFree {
			t.Fatalf("%v should be wait-free: %s", kind, rep.Witness)
		}
	}
}

// TestQueueSignalNotWaitFree: the F&I queue algorithm's Signal busy-waits
// through a registrant's FAA-to-write window, so a stalled registrant
// refutes wait-freedom — the algorithm is terminating only (as documented
// in internal/signal).
func TestQueueSignalNotWaitFree(t *testing.T) {
	rep, err := CheckWaitFree(signal.QueueSignal(), 6, 200, memsim.CallSignal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WaitFree {
		t.Fatal("queue Signal should not be wait-free (spin on a stalled registrant's slot)")
	}
	t.Logf("witness: %s", rep.Witness)
}

// TestQueueWaiterWaitFree: queue waiters, by contrast, are wait-free.
func TestQueueWaiterWaitFree(t *testing.T) {
	rep, err := CheckWaitFree(signal.QueueSignal(), 6, 32, memsim.CallPoll)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WaitFree {
		t.Fatalf("queue Poll should be wait-free: %s", rep.Witness)
	}
}

// TestCASRegisterRWNotWaitFree: the Corollary 6.14 transformation
// introduces busy-waiting (the paper cites [16] on why it must), so a
// registrant stalled inside the emulation lock blocks the probed Poll.
func TestCASRegisterRWNotWaitFree(t *testing.T) {
	rep, err := CheckWaitFree(signal.CASRegisterRW(), 6, 400, memsim.CallPoll)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WaitFree {
		t.Fatal("transformed algorithm should not be wait-free (lock-based emulation)")
	}
	t.Logf("witness: %s", rep.Witness)
}

// TestFixedTerminatingSignalNotWaitFree: Signal busy-waits for fixed
// waiters' participation.
func TestFixedTerminatingSignalNotWaitFree(t *testing.T) {
	rep, err := CheckWaitFree(signal.FixedWaitersTerminating(), 6, 200, memsim.CallSignal)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WaitFree {
		t.Fatal("terminating fixed-waiters Signal should not be wait-free")
	}
}

// TestTerminatingAlgorithms: every algorithm terminates under fair
// scheduling in its own variant.
func TestTerminatingAlgorithms(t *testing.T) {
	cases := []struct {
		alg      signal.Algorithm
		n        int
		blocking bool
	}{
		{signal.Flag(), 6, false},
		{signal.Flag(), 6, true},
		{signal.SingleWaiter(), 2, false},
		{signal.FixedWaiters(), 6, false},
		{signal.FixedWaitersTerminating(), 6, false},
		{signal.RegisteredWaiters(), 6, false},
		{signal.QueueSignal(), 6, false},
		{signal.CASRegister(), 6, false},
		{signal.CASRegisterRW(), 4, false},
		{signal.LeaderBlocking(), 6, true},
	}
	for _, tc := range cases {
		name := tc.alg.Name
		if tc.blocking {
			name += "/blocking"
		}
		t.Run(name, func(t *testing.T) {
			rep, err := CheckTerminating(tc.alg, tc.n, 400_000, tc.blocking)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Terminating {
				t.Fatalf("should terminate under fair schedules: %s", rep.Witness)
			}
		})
	}
}

// TestTerminationBudgetCountsFinalStep: a call that completes on the last
// budgeted step counts as completed, so each budget below is the smallest
// under which all three fair schedules finish (n=4, Signal after 4
// accesses), and one step fewer starves a named process.
func TestTerminationBudgetCountsFinalStep(t *testing.T) {
	cases := []struct {
		alg     signal.Algorithm
		budget  int
		witness string
	}{
		{signal.Flag(), 15, "p1 did not complete within 14 fair steps"},
		{signal.QueueSignal(), 25, "p3 did not complete within 24 fair steps"},
		{signal.FixedWaiters(), 19, "p2 did not complete within 18 fair steps"},
	}
	for _, tc := range cases {
		t.Run(tc.alg.Name, func(t *testing.T) {
			rep, err := CheckTerminating(tc.alg, 4, tc.budget, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Terminating {
				t.Fatalf("budget %d: not terminating: %s", tc.budget, rep.Witness)
			}
			rep, err = CheckTerminating(tc.alg, 4, tc.budget-1, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Terminating || rep.Witness != tc.witness {
				t.Fatalf("budget %d: terminating=%v witness %q, want %q",
					tc.budget-1, rep.Terminating, rep.Witness, tc.witness)
			}
		})
	}
}
