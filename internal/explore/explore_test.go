package explore

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// TestExhaustiveFlag explores every interleaving of one polling waiter and
// one signaler running the flag algorithm and checks Specification 4.1 on
// each history.
func TestExhaustiveFlag(t *testing.T) {
	alg := signal.Flag()
	res, err := Run(Config{
		Factory: alg.New,
		N:       2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 12,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if res.Paths < 2 {
		t.Fatalf("expected multiple interleavings, explored %d", res.Paths)
	}
	t.Logf("flag: %d interleavings, %d truncated", res.Paths, res.Truncated)
}

// TestExhaustiveAllPollingAlgorithms explores the registration race of each
// polling algorithm with two waiters and one signaler.
func TestExhaustiveAllPollingAlgorithms(t *testing.T) {
	for _, alg := range signal.All() {
		alg := alg
		if !alg.Variant.Polling || alg.Variant.Waiters == 1 {
			continue
		}
		if alg.Name == "cas-register-rw" || alg.Name == "llsc-register-rw" {
			continue // lock-based emulations explode the state space; covered by randomized tests
		}
		t.Run(alg.Name, func(t *testing.T) {
			n := 4 // waiters 0..2 by convention, signaler 3
			res, err := Run(Config{
				Factory: alg.New,
				N:       n,
				Scripts: map[memsim.PID][]memsim.CallKind{
					0: {memsim.CallPoll, memsim.CallPoll},
					1: {memsim.CallPoll, memsim.CallPoll},
					3: {memsim.CallSignal},
				},
				MaxDepth: 10,
				Check:    specCheck,
			})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			t.Logf("%s: %d interleavings, %d truncated", alg.Name, res.Paths, res.Truncated)
		})
	}
}

// TestExhaustiveSingleWaiter verifies the single-waiter algorithm in its
// own variant (exactly one waiter) — exhaustively correct there, even
// though the adversary breaks it with many waiters.
func TestExhaustiveSingleWaiter(t *testing.T) {
	alg := signal.SingleWaiter()
	res, err := Run(Config{
		Factory: alg.New,
		N:       2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 12,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("single-waiter: %d interleavings", res.Paths)
}

// TestExploreDetectsViolation plants a deliberately broken algorithm (Poll
// returns true without any signal) and checks that exploration finds it.
func TestExploreDetectsViolation(t *testing.T) {
	factory := func(m *memsim.Machine, n int) (memsim.Instance, error) {
		b := m.Alloc(memsim.NoOwner, "B", 1, 0)
		return brokenInstance{b: b}, nil
	}
	_, err := Run(Config{
		Factory: factory,
		N:       2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 6,
		Check:    specCheck,
	})
	if err == nil {
		t.Fatal("exploration should have found the planted violation")
	}
}

func specCheck(events []memsim.Event) error {
	if vs := signal.CheckSpec(events); len(vs) > 0 {
		return fmt.Errorf("%d violations, first: %s", len(vs), vs[0].Error())
	}
	return nil
}

// TestExhaustiveLeaderBlocking explores the blocking algorithm's election
// and propagation races with two waiters and one signaler.
func TestExhaustiveLeaderBlocking(t *testing.T) {
	alg := signal.LeaderBlocking()
	res, err := Run(Config{
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallWait},
			1: {memsim.CallWait},
			3: {memsim.CallSignal},
		},
		MaxDepth: 10,
		Engine:   EngineBacktrackDedup,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("leader-blocking: %d interleavings, %d truncated", res.Paths, res.Truncated)
}

// TestExhaustiveMultiSignaler explores two racing signalers against one
// waiter: a losing Signal call must never complete before delivery.
func TestExhaustiveMultiSignaler(t *testing.T) {
	alg := signal.MultiSignaler()
	res, err := Run(Config{
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			2: {memsim.CallSignal},
			3: {memsim.CallSignal},
		},
		MaxDepth: 10,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("multi-signaler: %d interleavings, %d truncated", res.Paths, res.Truncated)
}

// TestRejectsOutOfRangeScriptPID: a script for a process the machine does
// not have is a configuration error on every engine and on the
// checkpointed path, named by its PID — never silently dropped.
func TestRejectsOutOfRangeScriptPID(t *testing.T) {
	for _, bad := range []memsim.PID{2, -1} {
		cfg := Config{
			Factory: signal.Flag().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0:   {memsim.CallPoll},
				1:   {memsim.CallSignal},
				bad: {memsim.CallPoll},
			},
			MaxDepth: 6,
			Check:    specCheck,
		}
		want := fmt.Sprintf("p%d", bad)
		for _, eng := range []Engine{EngineAuto, EngineBacktrack, EngineBacktrackDedup, EngineBacktrackDedupPOR} {
			cfg.Engine = eng
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v with a script for %s: err = %v, want an error naming it", eng, want, err)
			}
		}
		cfg.Engine = EngineBacktrackDedup
		ck := Checkpoint{Path: filepath.Join(t.TempDir(), "run.rpck")}
		if _, err := RunCheckpointed(cfg, ck); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("checkpointed with a script for %s: err = %v, want an error naming it", want, err)
		}
	}
}
