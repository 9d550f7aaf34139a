package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/signal"
)

// runLabelled runs cfg under a leakcheck probe and fails t if a goroutine
// the run started outlives a grace period for unwinding.
func runLabelled(t *testing.T, cfg Config) (*Result, error) {
	t.Helper()
	var res *Result
	var err error
	probe := leakcheck.Run(func() { res, err = Run(cfg) })
	if n, stacks := probe.Settle(5 * time.Second); n != 0 {
		t.Fatalf("%d goroutines leaked:\n%s", n, stacks)
	}
	return res, err
}

// TestNoGoroutineLeakOnBudget: a run cut off by ErrBudget — processes
// mid-call when the budget trips — leaves no goroutines behind once Run
// returns.
func TestNoGoroutineLeakOnBudget(t *testing.T) {
	res, err := runLabelled(t, Config{
		Algorithm:  signal.Flag(),
		N:          8,
		NoSignaler: true, // waiters poll into the void: budget is the only exit
		MaxSteps:   64,
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if !res.Truncated {
		t.Fatal("result should be truncated")
	}
}

// TestNoGoroutineLeakOnInterrupt: same for the ErrInterrupted path.
func TestNoGoroutineLeakOnInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	res, err := runLabelled(t, Config{
		Algorithm:  signal.Flag(),
		N:          8,
		NoSignaler: true,
		MaxSteps:   1_000_000,
		Interrupt:  interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if !res.Interrupted {
		t.Fatal("result should be interrupted")
	}
}

// TestLockExperimentsStartNoGoroutines: no simulated process runs on a
// goroutine. The lock landscape (E9), the GME room (E10) and Fischer's
// timed lock (E11) run every process as a frame, so their runs start no
// goroutine at all.
func TestLockExperimentsStartNoGoroutines(t *testing.T) {
	for _, e := range []struct {
		id  string
		run func([]int) (*Table, error)
	}{
		{"E9", ExperimentE9},
		{"E10", ExperimentE10},
		{"E11", ExperimentE11},
	} {
		var err error
		probe := leakcheck.Run(func() { _, err = e.run([]int{2, 4}) })
		if err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		if n, stacks := probe.Alive(); n != 0 {
			t.Fatalf("%s left %d goroutines running:\n%s", e.id, n, stacks)
		}
	}
}
