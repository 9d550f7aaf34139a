package search_test

// The fault-dimension battery of the worst-case search: k=0 must be
// byte-identical to a fault-free run at every worker count and model;
// the reduced search must report the same worst cost as the unreduced
// one at k=1,2; the exhaustive worst case must be monotone in the fault
// budget (every fault-free schedule survives in the larger space); and
// the sampled maximum must stay below the exhaustive worst case at every
// budget. The pinned explore counterexample re-verifies through
// search.Replay, the independent driver.

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/search"
	"repro/internal/signal"
)

func faultPolicy(k int, vol memsim.Volatility) memsim.FaultPolicy {
	return memsim.FaultPolicy{Max: k, Kinds: memsim.SetCrash | memsim.SetLostCAS, Vol: vol}
}

func tempSnap(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.rpck")
}

// TestFaultZeroSearchIdentity: disabled policies leave the search Result
// byte-identical on every seed config, model and worker count.
func TestFaultZeroSearchIdentity(t *testing.T) {
	disabled := []memsim.FaultPolicy{
		{},
		{Max: 2},                 // kinds empty
		{Kinds: memsim.SetCrash}, // budget zero
	}
	for name, cfg := range seedConfigs() {
		for _, m := range models() {
			for _, workers := range []int{1, 2, 8} {
				base := cfg
				base.Model = m
				base.Workers = workers
				want, err := search.Run(base)
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", name, m.Name(), workers, err)
				}
				for _, fp := range disabled {
					c := base
					c.Faults = fp
					got, err := search.Run(c)
					if err != nil {
						t.Fatalf("%s/%s/w%d/%v: %v", name, m.Name(), workers, fp, err)
					}
					assertByteIdentical(t, want, got)
				}
			}
		}
	}
}

// TestFaultSandwich: on every polling algorithm at fault budgets 0, 1
// and 2, the adversarial-space worst case dominates both the Section 6
// lower-bound certificate (a fault-free history, so any budget's space
// contains it) and the sampled maximum under the same budget; and the
// worst case is monotone nondecreasing in the budget. The depth-28 space
// of llsc-register-rw stops at budget 1: two faults there take seconds
// (minutes under the race detector), and one already exercises the fault
// dimension.
func TestFaultSandwich(t *testing.T) {
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue
		}
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			cert, err := lowerbound.Run(lowerbound.Config{
				Algorithm:      alg,
				N:              4,
				C:              1,
				VerifyErasures: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			prev := -1
			budgets := []int{0, 1, 2}
			if adversarial(alg).MaxDepth > 14 {
				budgets = budgets[:2]
			}
			for _, k := range budgets {
				cfg := adversarial(alg)
				cfg.Faults = faultPolicy(k, memsim.VolStable)
				res, err := search.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cert.TotalRMRs > res.WorstCost {
					t.Fatalf("k=%d: certificate claims %d RMRs but the exhaustive worst case is %d",
						k, cert.TotalRMRs, res.WorstCost)
				}
				if res.WorstCost < prev {
					t.Fatalf("k=%d: worst case %d fell below the k=%d worst case %d — a larger schedule space lost schedules",
						k, res.WorstCost, k-1, prev)
				}
				prev = res.WorstCost
				sc := cfg
				sc.Mode = search.ModeSample
				sc.Seed = 42
				sc.Walks = 64
				sam, err := search.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if sam.WorstCost > res.WorstCost {
					t.Fatalf("k=%d: sampled max %d exceeds exhaustive worst case %d", k, sam.WorstCost, res.WorstCost)
				}
				t.Logf("k=%d: certificate %d ≤ sampled max %d ≤ worst case %d", k, cert.TotalRMRs, sam.WorstCost, res.WorstCost)
			}
		})
	}
}

// TestFaultReduceAgrees: at budgets 1 and 2, the reduced exhaustive
// search reports exactly the unreduced worst cost on every seed config
// and model (the run's internal audit separately confirms the reduced
// witness replays to that cost).
func TestFaultReduceAgrees(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, m := range models() {
			for _, k := range []int{1, 2} {
				plain := cfg
				plain.Model = m
				plain.Faults = faultPolicy(k, memsim.VolOwned)
				want, err := search.Run(plain)
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", name, m.Name(), k, err)
				}
				red := plain
				red.Reduce = true
				got, err := search.Run(red)
				if err != nil {
					t.Fatalf("%s/%s k=%d reduced: %v", name, m.Name(), k, err)
				}
				if got.WorstCost != want.WorstCost {
					t.Errorf("%s/%s k=%d: reduced worst cost %d, unreduced %d",
						name, m.Name(), k, got.WorstCost, want.WorstCost)
				}
			}
		}
	}
}

// pinnedCrashSearchConfig mirrors explore's pinned fixed-waiters crash
// counterexample on the search side.
func pinnedCrashSearchConfig() search.Config {
	return search.Config{
		Factory: signal.FixedWaiters().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 12,
		Faults:   memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash, Vol: memsim.VolOwned},
	}
}

// TestReplayVerifiesCrashWitness re-verifies the explorer's pinned crash
// counterexample through search.Replay — a driver with no code shared
// with either explorer engine. The witness indices are derived from the
// pinned schedule rendering alone, then the replayed trace must fail
// Specification 4.1 with exactly the pinned violation.
func TestReplayVerifiesCrashWitness(t *testing.T) {
	// Keep in lockstep with internal/explore's pinned counterexample.
	schedule := []string{"p0+", "p0", "p0+", "p0", "p1+", "p3+", "p3", "p3", "p3", "p1!", "p1+", "p1"}
	const violation = "spec violation (poll-false) by p1 call 0: Poll returned false but a Signal call completed at seq 11 before the poll began at seq 13"

	cfg := pinnedCrashSearchConfig()
	var witness []int
	for depth, token := range schedule {
		found := false
		for idx := 0; ; idx++ {
			rep, err := search.Replay(cfg, append(append([]int(nil), witness...), idx))
			if err != nil {
				break // idx out of range at this depth
			}
			if rep.Schedule[depth] == token {
				witness = append(witness, idx)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no choice renders %q at depth %d (witness so far %v)", token, depth, witness)
		}
	}

	rep, err := search.Replay(cfg, witness)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rep.Schedule[:len(schedule)], " "); got != strings.Join(schedule, " ") {
		t.Fatalf("replayed schedule %q, want %q", got, strings.Join(schedule, " "))
	}
	vs := signal.CheckSpec(rep.Events)
	if len(vs) == 0 {
		t.Fatal("replayed crash witness passes Specification 4.1; explore pins it as a violation")
	}
	if vs[0].Error() != violation {
		t.Fatalf("replayed violation:\n got %s\nwant %s", vs[0].Error(), violation)
	}
}

// TestFaultCheckpointCompat: fault-enabled snapshots and fault-free
// snapshots reject each other cleanly in both directions (CodeConflict,
// never a silent resume into the wrong schedule space), and differing
// fault policies likewise conflict; a matching policy resumes.
func TestFaultCheckpointCompat(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	faulty := cfg
	faulty.Faults = faultPolicy(1, memsim.VolStable)

	t.Run("plain-to-faulty", func(t *testing.T) {
		path := tempSnap(t)
		if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		if _, err := search.RunCheckpointed(faulty, search.Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("fault-enabled resume of a fault-free snapshot: %v, want CodeConflict", err)
		}
	})
	t.Run("faulty-to-plain", func(t *testing.T) {
		path := tempSnap(t)
		if _, err := search.RunCheckpointed(faulty, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("fault-free resume of a fault-enabled snapshot: %v, want CodeConflict", err)
		}
	})
	t.Run("policy-change", func(t *testing.T) {
		path := tempSnap(t)
		if _, err := search.RunCheckpointed(faulty, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		other := cfg
		other.Faults = faultPolicy(2, memsim.VolOwned)
		if _, err := search.RunCheckpointed(other, search.Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("policy-changed resume: %v, want CodeConflict", err)
		}
	})
	t.Run("earlier-reduced-key-layout", func(t *testing.T) {
		// A reduced fault-enabled snapshot written before the fault budget
		// moved behind the machine state in reduced keys carries no
		// "|keys2" marker; resuming it must conflict, not reuse its keys.
		reduced := faulty
		reduced.Reduce = true
		path := tempSnap(t)
		if _, err := search.RunCheckpointed(reduced, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		snap, err := checkpoint.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(snap.Fingerprint, "|reduce|keys2") {
			t.Fatalf("reduced fault-enabled fingerprint %q lacks the key-layout marker", snap.Fingerprint)
		}
		snap.Fingerprint = strings.TrimSuffix(snap.Fingerprint, "|keys2")
		if err := checkpoint.Write(path, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := search.RunCheckpointed(reduced, search.Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("resume of an earlier-layout snapshot: %v, want CodeConflict", err)
		}
	})
	t.Run("same-policy-resumes", func(t *testing.T) {
		path := tempSnap(t)
		want, err := search.Run(faulty)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := search.RunCheckpointed(faulty, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		got, err := search.RunCheckpointed(faulty, search.Checkpoint{Path: path, Tag: "flag", Resume: true})
		if err != nil {
			t.Fatalf("matching resume: %v", err)
		}
		assertByteIdentical(t, want, got)
	})
}

// TestFaultCheckpointKillResume: a fault-enabled checkpointed run
// interrupted mid-way resumes to the byte-identical result of an
// uninterrupted one.
func TestFaultCheckpointKillResume(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Faults = faultPolicy(1, memsim.VolOwned)
	want, err := search.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := tempSnap(t)
	if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", StopAfter: 2}); !errs.IsInterrupt(err) {
		t.Fatalf("stop-after run: %v, want interrupt", err)
	}
	got, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertByteIdentical(t, want, got)
}
