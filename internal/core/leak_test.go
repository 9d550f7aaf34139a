package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/signal"
)

func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakOnBudget: a run cut off by ErrBudget — processes
// parked mid-access when the budget trips — leaves no goroutines behind
// once Run returns.
func TestNoGoroutineLeakOnBudget(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := Run(Config{
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
	settleGoroutines(t, base)
}

// TestNoGoroutineLeakOnInterrupt: same for the ErrInterrupted path.
func TestNoGoroutineLeakOnInterrupt(t *testing.T) {
	base := runtime.NumGoroutine()
	interrupt := make(chan struct{})
	close(interrupt)
	res, err := Run(Config{
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
	settleGoroutines(t, base)
}
