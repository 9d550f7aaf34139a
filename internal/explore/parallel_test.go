package explore

import (
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// queue33Config is the headline parallel workload: 3 waiters × 3 polls on
// the F&I queue algorithm (5 processes), explored to the given depth.
func queue33Config(depth, workers int) Config {
	return Config{
		Factory: signal.QueueSignal().New,
		N:       5,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			2: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			4: {memsim.CallSignal},
		},
		MaxDepth: depth,
		Workers:  workers,
		Check:    specCheck,
	}
}

// sameResult compares every deterministic Result field (all of them except
// Workers, which records the pool size that ran).
func sameResult(a, b *Result) bool {
	return a.Paths == b.Paths && a.Truncated == b.Truncated &&
		a.StatesDeduped == b.StatesDeduped &&
		a.MaxDepthReached == b.MaxDepthReached && a.Engine == b.Engine
}

// TestWorkersEquivalent: the sharded engine returns identical results —
// Paths, Truncated, StatesDeduped and MaxDepthReached — for every worker
// count on every seed config. This is the determinism contract of the
// claim-once dedup rule: the explored set is the set of distinct
// (canonical state, remaining budget) pairs reachable from the root, which
// no amount of work-stealing can change.
func TestWorkersEquivalent(t *testing.T) {
	for name, cfg := range seedConfigs() {
		t.Run(name, func(t *testing.T) {
			base := cfg
			base.Engine = EngineBacktrackDedup
			base.Workers = 1
			want, err := Run(base)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			for _, workers := range []int{2, 3, 8} {
				c := base
				c.Workers = workers
				got, err := Run(c)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Workers != workers {
					t.Fatalf("workers=%d: result reports %d workers", workers, got.Workers)
				}
				if !sameResult(want, got) {
					t.Fatalf("workers=%d diverged:\n  workers=1: %+v\n  workers=%d: %+v",
						workers, want, workers, got)
				}
			}
			t.Logf("%d paths (%d truncated), %d deduped — identical at 1, 2, 3, 8 workers",
				want.Paths, want.Truncated, want.StatesDeduped)
		})
	}
}

// TestParallelBacktrackMatchesReplay: with dedup off, the sharded
// backtracking engine still visits exactly the replay enumeration's
// histories — the full schedule tree — at any worker count.
func TestParallelBacktrackMatchesReplay(t *testing.T) {
	for _, name := range []string{"flag-2proc", "multi-signaler"} {
		cfg := seedConfigs()[name]
		t.Run(name, func(t *testing.T) {
			want, err := replayRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				c := cfg
				c.Engine = EngineBacktrack
				c.Workers = workers
				got, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if got.Paths != want.Paths || got.Truncated != want.Truncated ||
					got.MaxDepthReached != want.MaxDepthReached {
					t.Fatalf("workers=%d:\n replay:    %+v\n backtrack: %+v", workers, want, got)
				}
			}
		})
	}
}

// TestParallelDeterministicRepeat: repeated parallel runs of a contended
// config agree with each other and with the sequential engine — no
// run-to-run drift from scheduling races.
func TestParallelDeterministicRepeat(t *testing.T) {
	want, err := Run(queue33Config(14, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := Run(queue33Config(14, 8))
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(want, got) {
			t.Fatalf("run %d diverged:\n sequential: %+v\n parallel:   %+v", i, want, got)
		}
	}
	if want.StatesDeduped == 0 {
		t.Fatal("contended queue config should deduplicate states")
	}
}

// TestParallelDetectsViolation: planted violations — including the
// prefix-sensitive deaf-poll one that exercises the dedup key's monitor
// bits — are found at every worker count, and the reported schedule is a
// real counterexample (it names the property error).
func TestParallelDetectsViolation(t *testing.T) {
	broken := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return brokenInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 6,
		Check:    specCheck,
	}
	deaf := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return deafPollInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 8,
		Check:    specCheck,
	}
	for name, cfg := range map[string]Config{"broken": broken, "deaf-poll": deaf} {
		for _, workers := range []int{2, 4} {
			c := cfg
			c.Engine = EngineBacktrackDedup
			c.Workers = workers
			_, err := Run(c)
			if err == nil {
				t.Fatalf("%s workers=%d: violation not found", name, workers)
			}
			if !strings.Contains(err.Error(), "property failed on schedule") {
				t.Fatalf("%s workers=%d: error lacks counterexample schedule: %v", name, workers, err)
			}
		}
	}
}

// TestParallelWorkersExceedWork: more workers than the tree has parallelism
// (or than the machine has cores) must neither wedge nor change results.
func TestParallelWorkersExceedWork(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Engine = EngineBacktrackDedup
	cfg.Workers = 1
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 32
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(want, got) {
		t.Fatalf("32 workers diverged:\n 1:  %+v\n 32: %+v", want, got)
	}
}
