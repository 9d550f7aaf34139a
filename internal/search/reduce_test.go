package search_test

// The search half of the A/B equivalence suite: on every seed config
// (plus larger symmetric workloads where the reduction has room to act)
// the reduced exhaustive engine must report exactly the unreduced
// worst-case cost with a witness that replays to it, while visiting no
// more of the schedule space; every reduced counter must be identical
// across worker counts; and the reduced checkpointed and sharded
// regimes must reproduce the reduced plain run.

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/signal"
)

// symmetricSearchConfigs are workloads with several identically-scripted
// waiters, sized for the cost-forking exhaustive engine (smaller than the
// explorer's symmetric configs: every node forks the model accumulator).
func symmetricSearchConfigs() map[string]search.Config {
	waiters := func(n, polls int) map[memsim.PID][]memsim.CallKind {
		scripts := make(map[memsim.PID][]memsim.CallKind, n+1)
		for p := 0; p < n; p++ {
			s := make([]memsim.CallKind, polls)
			for i := range s {
				s[i] = memsim.CallPoll
			}
			scripts[memsim.PID(p)] = s
		}
		scripts[memsim.PID(n)] = []memsim.CallKind{memsim.CallSignal}
		return scripts
	}
	return map[string]search.Config{
		"flag-3w": {
			Factory:  signal.Flag().New,
			N:        4,
			Scripts:  waiters(3, 2),
			MaxDepth: 12,
		},
		"fixed-3w": {
			Factory:  signal.FixedWaiters().New,
			N:        4,
			Scripts:  waiters(3, 2),
			MaxDepth: 12,
		},
	}
}

// reduceConfigs is the config axis of the reduction properties: the seed
// configs plus the symmetric workloads.
func reduceConfigs() map[string]search.Config {
	cfgs := seedConfigs()
	for name, cfg := range symmetricSearchConfigs() {
		cfgs[name] = cfg
	}
	return cfgs
}

// TestReduceAgreesWithExhaustive: on every config under every model, the
// reduced engine reports exactly the unreduced worst cost, its witness
// replays to that cost, and it visits no more (state, budget) nodes.
func TestReduceAgreesWithExhaustive(t *testing.T) {
	for name, cfg := range reduceConfigs() {
		for _, m := range models() {
			cfg := cfg
			cfg.Model = m
			cfg.Workers = 1
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				base, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("unreduced run: %v", err)
				}
				red := cfg
				red.Reduce = true
				redRes, err := search.Run(red)
				if err != nil {
					t.Fatalf("reduced run: %v", err)
				}
				if !redRes.Reduced {
					t.Fatalf("reduction did not engage (every repository model asserts order-invariance): %+v", redRes)
				}
				if redRes.WorstCost != base.WorstCost {
					t.Fatalf("reduced worst cost %d != unreduced %d", redRes.WorstCost, base.WorstCost)
				}
				rep, err := search.Replay(red, redRes.Witness)
				if err != nil {
					t.Fatalf("reduced witness replay: %v", err)
				}
				if rep.Cost.Total != redRes.WorstCost {
					t.Fatalf("reduced witness replays to %d, reported %d", rep.Cost.Total, redRes.WorstCost)
				}
				baseStates := base.Paths + base.Pruned
				redStates := redRes.Paths + redRes.Pruned
				if redStates > baseStates {
					t.Fatalf("reduction visited more states: %d > %d", redStates, baseStates)
				}
				t.Logf("worst %d RMRs; states %d -> %d (%d slept, %d sym merges)",
					redRes.WorstCost, baseStates, redStates, redRes.StepsSlept, redRes.SymmetryMerges)
			})
		}
	}
}

// TestReducePrunesSearch: across the symmetric workloads under DSM (the
// model asserting both capabilities) the reduction must bite on both
// axes — commuting children slept and PID-permuted states merged — and
// shrink the visited space.
func TestReducePrunesSearch(t *testing.T) {
	slept, merged := 0, 0
	for name, cfg := range symmetricSearchConfigs() {
		cfg.Model = model.ModelDSM
		cfg.Workers = 1
		base, err := search.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.Reduce = true
		res, err := search.Run(cfg)
		if err != nil {
			t.Fatalf("%s reduced: %v", name, err)
		}
		slept += res.StepsSlept
		merged += res.SymmetryMerges
		if got, want := res.Paths+res.Pruned, base.Paths+base.Pruned; got >= want {
			t.Errorf("%s: reduction did not shrink the space (%d >= %d)", name, got, want)
		}
	}
	if slept == 0 {
		t.Error("sleep sets never pruned a child across the symmetric configs")
	}
	if merged == 0 {
		t.Error("symmetry canonicalization never merged a permuted state")
	}
}

// TestReduceWorkersEquivalent is satellite determinism for the reduced
// regime: every Result field — cost, witness, and every counter
// including StepsSlept and SymmetryMerges — is identical for 1, 2, 4
// and 8 workers.
func TestReduceWorkersEquivalent(t *testing.T) {
	for name, cfg := range reduceConfigs() {
		for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC} {
			cfg := cfg
			cfg.Model = m
			cfg.Reduce = true
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				base := cfg
				base.Workers = 1
				want, err := search.Run(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					c := cfg
					c.Workers = workers
					got, err := search.Run(c)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					got.Workers = want.Workers // the only legitimately differing field
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("workers=%d diverged:\n workers=1: %+v\n workers=%d: %+v",
							workers, want, workers, got)
					}
				}
			})
		}
	}
}

// TestReduceCheckpointedMatchesPlain: the reduced checkpointed run —
// uninterrupted and killed-after-every-unit — reproduces the reduced
// plain Result byte-for-byte, and the "|reduce"-marked fingerprint
// refuses to resume into an unreduced configuration.
func TestReduceCheckpointedMatchesPlain(t *testing.T) {
	for _, name := range []string{"flag-2proc", "multi-signaler", "flag-3w"} {
		cfg := reduceConfigs()[name]
		cfg.Reduce = true
		for _, m := range ckModels() {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				want, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("plain reduced run: %v", err)
				}
				path := filepath.Join(t.TempDir(), "run.rpck")
				got, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: name})
				if err != nil {
					t.Fatalf("checkpointed reduced run: %v", err)
				}
				assertByteIdentical(t, want, got)

				killed, kills := resumeToCompletion(t, cfg, search.Checkpoint{
					Path: filepath.Join(t.TempDir(), "kill.rpck"), Tag: name,
				}, 1)
				if kills == 0 {
					t.Fatal("test exercised no kills (config has no units?)")
				}
				assertByteIdentical(t, want, killed)

				unreduced := cfg
				unreduced.Reduce = false
				_, err = search.RunCheckpointed(unreduced, search.Checkpoint{Path: path, Tag: name, Resume: true})
				if errs.CodeOf(err) != errs.CodeConflict {
					t.Fatalf("reduced snapshot resumed an unreduced config: %v", err)
				}
			})
		}
	}
}

// TestReduceShardedMatchesPlain: computing every unit of a reduced
// search against a private table and merging yields the reduced plain
// answer (cost, witness, schedule), independent of the worker count.
func TestReduceShardedMatchesPlain(t *testing.T) {
	for _, name := range []string{"flag-2proc", "multi-signaler", "flag-3w"} {
		cfg := reduceConfigs()[name]
		cfg.Reduce = true
		for _, m := range ckModels() {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				want, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("plain reduced run: %v", err)
				}
				merged, err := search.RunSharded(cfg, search.Checkpoint{}, 1, inProcess(cfg))
				if err != nil {
					t.Fatalf("sharded run: %v", err)
				}
				if merged.WorstCost != want.WorstCost || !reflect.DeepEqual(merged.Witness, want.Witness) {
					t.Fatalf("sharded reduced answer (%d, %v) != plain (%d, %v)",
						merged.WorstCost, merged.Witness, want.WorstCost, want.Witness)
				}
				if !reflect.DeepEqual(merged.Schedule, want.Schedule) {
					t.Fatalf("sharded schedule diverges: %v vs %v", merged.Schedule, want.Schedule)
				}
				for _, workers := range []int{3, 64} {
					again, err := search.RunSharded(cfg, search.Checkpoint{}, workers, inProcess(cfg))
					if err != nil {
						t.Fatalf("%d workers: %v", workers, err)
					}
					assertByteIdentical(t, merged, again)
				}
			})
		}
	}
}

// TestReduceRejectsSample: sampling explores no state space, so Reduce
// with ModeSample is a configuration error, not a silent no-op.
func TestReduceRejectsSample(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Mode = search.ModeSample
	cfg.Reduce = true
	if _, err := search.Run(cfg); err == nil {
		t.Fatal("sample mode accepted Reduce")
	}
}
