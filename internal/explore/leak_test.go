package explore

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/memsim"
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

// TestNoGoroutineLeakAfterReplayTruncation: the replay enumeration
// truncates thousands of histories at the depth bound, closing an
// execution with parked calls each time; nothing may outlive the run.
func TestNoGoroutineLeakAfterReplayTruncation(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := replayRun(Config{
		Factory: signal.QueueSignal().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 7,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 7")
	}
	settleGoroutines(t, base)
}

// TestNoGoroutineLeakBacktracking: the single-worker backtracking engine
// must not touch the goroutine count at all, however many histories it
// truncates.
func TestNoGoroutineLeakBacktracking(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := Run(Config{
		Factory: signal.QueueSignal().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 7,
		Engine:   EngineBacktrackDedup,
		Workers:  1,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 7")
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("backtracking engine changed goroutine count: %d -> %d", base, got)
	}
}

// TestNoGoroutineLeakParallel: a parallel exploration joins its whole
// worker pool before returning — no worker goroutine survives the run,
// even when the property fails mid-search and the pool aborts.
func TestNoGoroutineLeakParallel(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := Run(queue33Config(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 10")
	}
	failing := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return brokenInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 6,
		Workers:  8,
		Check:    specCheck,
	}
	if _, err := Run(failing); err == nil {
		t.Fatal("planted violation not found")
	}
	settleGoroutines(t, base)
}
