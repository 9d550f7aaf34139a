package explore

import (
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/memsim"
	"repro/internal/signal"
)

// settled fails t if goroutines started under probe outlive a grace
// period for unwinding.
func settled(t *testing.T, probe leakcheck.Probe) {
	t.Helper()
	if n, stacks := probe.Settle(5 * time.Second); n != 0 {
		t.Fatalf("%d goroutines leaked:\n%s", n, stacks)
	}
}

// leakConfig is the queue algorithm with two polling waiters and a
// signaler, truncated at depth 7.
func leakConfig() Config {
	return Config{
		Factory: signal.QueueSignal().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 7,
		Check:    specCheck,
	}
}

// TestNoGoroutineLeakAfterReplayTruncation: the replay enumeration
// truncates thousands of histories at the depth bound, leaving an
// execution mid-call each time; nothing may outlive the run.
func TestNoGoroutineLeakAfterReplayTruncation(t *testing.T) {
	var res *Result
	var err error
	probe := leakcheck.Run(func() { res, err = replayRun(leakConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 7")
	}
	settled(t, probe)
}

// TestNoGoroutineLeakBacktracking: the single-worker backtracking engine
// starts no goroutine at all, however many histories it truncates.
func TestNoGoroutineLeakBacktracking(t *testing.T) {
	cfg := leakConfig()
	cfg.Engine = EngineBacktrackDedup
	cfg.Workers = 1
	var res *Result
	var err error
	probe := leakcheck.Run(func() { res, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 7")
	}
	if n, stacks := probe.Alive(); n != 0 {
		t.Fatalf("backtracking engine left %d goroutines running:\n%s", n, stacks)
	}
}

// TestNoGoroutineLeakParallel: a parallel exploration joins its whole
// worker pool before returning — no worker goroutine survives the run,
// even when the property fails mid-search and the pool aborts.
func TestNoGoroutineLeakParallel(t *testing.T) {
	var res *Result
	var err, failErr error
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
	probe := leakcheck.Run(func() {
		res, err = Run(queue33Config(10, 8))
		_, failErr = Run(failing)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated == 0 {
		t.Fatal("expected truncated histories at depth 10")
	}
	if failErr == nil {
		t.Fatal("planted violation not found")
	}
	settled(t, probe)
}
