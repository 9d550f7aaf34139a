package signal

import (
	"errors"
	"testing"

	"repro/internal/memsim"
)

// TestBlockifiedWaitReturnsAfterSignal: the derived Wait busy-waits until
// the signal and then returns, for every polling algorithm, under a simple
// alternating schedule (waiter steps interleaved with the signaler's).
func TestBlockifiedWaitReturnsAfterSignal(t *testing.T) {
	for _, base := range All() {
		base := base
		if !base.Variant.Polling {
			continue
		}
		if base.Variant.FixedWaiters && base.Variant.FixedSignaler {
			// fixed-waiters-terminating: Signal blocks until every fixed
			// waiter participates, which this single-waiter scenario
			// cannot satisfy.
			continue
		}
		t.Run(base.Name, func(t *testing.T) {
			alg := Blockified(base)
			if !alg.Variant.Blocking {
				t.Fatal("Blockified must declare blocking support")
			}
			n := 4
			exec, err := alg.Deploy(n)
			if err != nil {
				t.Fatal(err)
			}

			waiter := memsim.PID(0)
			signaler := memsim.PID(n - 1)
			if err := exec.Start(waiter, memsim.CallWait); err != nil {
				t.Fatal(err)
			}
			// Let the waiter spin a while before the signal.
			for i := 0; i < 10; i++ {
				if _, ok := exec.Pending(waiter); ok {
					if _, err := exec.Step(waiter); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, done := exec.CallEnded(waiter); done {
				t.Fatal("Wait returned before any signal")
			}
			if _, err := exec.Invoke(signaler, memsim.CallSignal, 100_000); err != nil {
				t.Fatalf("signal: %v", err)
			}
			// Now the waiter must finish in bounded further steps.
			for i := 0; i < 100_000; i++ {
				if _, done := exec.CallEnded(waiter); done {
					if _, err := exec.Finish(waiter); err != nil {
						t.Fatal(err)
					}
					if vs := CheckSpec(exec.Events()); len(vs) > 0 {
						t.Fatalf("spec violations: %v", vs)
					}
					return
				}
				if _, err := exec.Step(waiter); err != nil {
					t.Fatal(err)
				}
			}
			t.Fatal("Wait did not return after the signal completed")
		})
	}
}

// TestBlockifiedPreservesPollAndSignal: the wrapper is transparent for the
// other procedures.
func TestBlockifiedPreservesPollAndSignal(t *testing.T) {
	alg := Blockified(QueueSignal())
	exec, err := alg.Deploy(4)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := exec.Invoke(0, memsim.CallPoll, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 0 {
		t.Fatal("pre-signal poll returned true")
	}
	if _, err := exec.Invoke(3, memsim.CallSignal, 10_000); err != nil {
		t.Fatal(err)
	}
	ret, err = exec.Invoke(0, memsim.CallPoll, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if ret == 0 {
		t.Fatal("post-signal poll returned false")
	}
}

// TestBlockifiedRejectsNonPolling: the wrapper requires Poll; Poll on a
// blockified non-polling algorithm errors at the base algorithm.
func TestBlockifiedRejectsNonPolling(t *testing.T) {
	alg := Blockified(LeaderBlocking()) // has Wait but no Poll
	exec, err := alg.Deploy(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Instance().ProgramInto(nil, 0, memsim.CallPoll); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Poll on non-polling base: err = %v, want ErrUnsupported", err)
	}
}

// TestBlockifiedWaitNeedsPoll: a blockified algorithm without Poll has no
// Wait to derive. Starting one is refused with ErrUnsupported; it must not
// start a Wait that returns at once with no access and no Signal, which
// Specification 4.1 forbids.
func TestBlockifiedWaitNeedsPoll(t *testing.T) {
	exec, err := Blockified(LeaderBlocking()).Deploy(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Start(0, memsim.CallWait); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Wait on blockified leader-blocking: err = %v, want ErrUnsupported", err)
	}
}

// TestBlockifiedWaitPollAllocs: once registered, a spinning blockified
// Wait restarts its inner Poll frame in place, so its polling steps
// allocate nothing.
func TestBlockifiedWaitPollAllocs(t *testing.T) {
	const n = 3
	m := memsim.NewMachine(n)
	inst, err := Blockified(QueueSignal()).New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := inst.ProgramInto(nil, 0, memsim.CallWait)
	if err != nil {
		t.Fatal(err)
	}
	var prev memsim.Result
	step := func() {
		acc, ok := wait.Next(prev)
		if !ok {
			t.Fatal("Wait returned with no signal")
		}
		prev = m.Apply(0, acc)
	}
	// Registration, then a few polls to mint the poll storage.
	for i := 0; i < 20; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10; i++ {
			step()
		}
	}); allocs != 0 {
		t.Fatalf("10 polling steps allocate %v times, want 0", allocs)
	}
}
