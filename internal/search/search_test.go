package search_test

// The acceptance properties of cost-directed search, tying three
// subsystems together: on every seed config, the exhaustive engine (at
// any worker count) must agree exactly with a brute-force enumeration
// over the schedule tree (worst cost AND lexicographically least
// witness), the witness must replay to exactly the reported cost on the
// independent Execution + streaming-scorer path, the sampled maximum must
// never exceed the exhaustive worst case, and the Section 6 lower-bound
// certificate's cost must never exceed a worst case searched over a
// schedule space generous enough to contain adversary-style histories.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/signal"
)

// seedConfigs are the workloads every property below quantifies over:
// the explorer's historical seed workloads, sized so that per-path
// brute-force replay stays affordable.
func seedConfigs() map[string]search.Config {
	cfgs := map[string]search.Config{
		"flag-2proc": {
			Factory: signal.Flag().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallSignal},
			},
			MaxDepth: 10,
		},
		"single-waiter": {
			Factory: signal.SingleWaiter().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallSignal},
			},
			MaxDepth: 10,
		},
		"multi-signaler": {
			Factory: signal.MultiSignaler().New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll},
				2: {memsim.CallSignal},
				3: {memsim.CallSignal},
			},
			MaxDepth: 8,
		},
	}
	for _, alg := range []signal.Algorithm{
		signal.FixedWaiters(), signal.RegisteredWaiters(), signal.QueueSignal(),
		signal.CASRegister(), signal.LLSCRegister(),
	} {
		cfgs[alg.Name] = search.Config{
			Factory: alg.New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallPoll, memsim.CallPoll},
				3: {memsim.CallSignal},
			},
			MaxDepth: 8,
		}
	}
	return cfgs
}

// models is the cost-model axis of the equivalence properties.
func models() []model.Scorer {
	return []model.Scorer{model.ModelDSM, model.ModelCC, model.ModelCCWriteBack}
}

func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// bruteForce enumerates every maximal history of cfg in lexicographic
// order by repeated full replay — the ground truth the memoized engine
// must match. It returns the maximal cost, the lexicographically least
// witness achieving it, and the number of histories.
func bruteForce(t *testing.T, cfg search.Config) (best int, witness []int, paths int) {
	t.Helper()
	var path []int
	for {
		rep, err := search.Replay(cfg, path)
		if err != nil {
			t.Fatalf("brute force replay: %v", err)
		}
		cost := rep.Cost.Total
		full := rep.Path
		if paths == 0 || cost > best {
			best = cost
			witness = append([]int(nil), full...)
		} else if cost == best && lexLess(full, witness) {
			witness = append([]int(nil), full...)
		}
		paths++
		next := -1
		for i := len(full) - 1; i >= 0; i-- {
			if full[i]+1 < rep.ChoiceCounts[i] {
				next = i
				break
			}
		}
		if next < 0 {
			return best, witness, paths
		}
		path = append(append([]int(nil), full[:next]...), full[next]+1)
	}
}

// TestExhaustiveMatchesBruteForce: on every seed config under every
// model, the memoized engine reports exactly the brute-force maximum and
// its lexicographically least witness, and the witness replays to that
// cost.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, m := range models() {
			cfg := cfg
			cfg.Model = m
			cfg.Workers = 1
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				want, wantWitness, paths := bruteForce(t, cfg)
				res, err := search.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.WorstCost != want {
					t.Fatalf("worst cost %d, brute force found %d (over %d histories)",
						res.WorstCost, want, paths)
				}
				if !reflect.DeepEqual(res.Witness, wantWitness) {
					t.Fatalf("witness %v is not the lexicographically least %v", res.Witness, wantWitness)
				}
				rep, err := search.Replay(cfg, res.Witness)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Cost.Total != res.WorstCost {
					t.Fatalf("witness replays to %d, reported %d", rep.Cost.Total, res.WorstCost)
				}
				if res.Pruned == 0 && paths > res.Paths {
					t.Fatalf("engine scored fewer histories (%d) than brute force (%d) without pruning",
						res.Paths, paths)
				}
				t.Logf("worst %d RMRs, witness %v, %d paths (%d pruned; brute force %d)",
					res.WorstCost, res.Schedule, res.Paths, res.Pruned, paths)
			})
		}
	}
}

// TestWorkersEquivalent: every Result field — cost, witness and every
// counter — is identical for every worker count, the determinism contract
// of the adoption-accounted memo table.
func TestWorkersEquivalent(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC} {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				base := cfg
				base.Workers = 1
				want, err := search.Run(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8} {
					c := cfg
					c.Workers = workers
					got, err := search.Run(c)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if got.Workers != workers {
						t.Fatalf("workers=%d: result reports %d workers", workers, got.Workers)
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

// TestSampleBelowExhaustive: a sampled maximum is a maximum over a subset
// of the schedule space, so it can never exceed the exhaustive worst
// case; the sampled witness still replays to exactly the sampled cost.
func TestSampleBelowExhaustive(t *testing.T) {
	for name, cfg := range seedConfigs() {
		cfg := cfg
		cfg.Workers = 2
		t.Run(name, func(t *testing.T) {
			exh, err := search.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := cfg
			sc.Mode = search.ModeSample
			sc.Seed = 1
			sc.Walks = 128
			sam, err := search.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if sam.WorstCost > exh.WorstCost {
				t.Fatalf("sampled max %d exceeds exhaustive worst case %d", sam.WorstCost, exh.WorstCost)
			}
			if sam.Seed != 1 || sam.Walks != 128 {
				t.Fatalf("sample result does not echo its parameters: %+v", sam)
			}
			rep, err := search.Replay(sc, sam.Witness)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cost.Total != sam.WorstCost {
				t.Fatalf("sampled witness replays to %d, reported %d", rep.Cost.Total, sam.WorstCost)
			}
			if sam.Q == nil || sam.Q.P50 > sam.Q.P90 || sam.Q.P90 > sam.Q.P99 || sam.Q.P99 > sam.WorstCost {
				t.Fatalf("quantiles inconsistent: %+v (max %d)", sam.Q, sam.WorstCost)
			}
			if sam.MeanCost > float64(sam.WorstCost) {
				t.Fatalf("mean %f exceeds sampled max %d", sam.MeanCost, sam.WorstCost)
			}
		})
	}
}

// TestSampleDeterministic: the sample is a pure function of (Config,
// Seed) — identical for any worker count and across repeated runs — and
// different seeds genuinely explore different schedules.
func TestSampleDeterministic(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Mode = search.ModeSample
	cfg.Seed = 7
	cfg.Walks = 64
	cfg.Workers = 1
	want, err := search.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		c := cfg
		c.Workers = workers
		got, err := search.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got.Workers = want.Workers
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("sample diverged at %d workers:\n want %+v\n got  %+v", workers, want, got)
		}
	}
	c := cfg
	c.Seed = 8
	other, err := search.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(want.Q, other.Q) && want.MeanCost == other.MeanCost {
		t.Logf("warning: seeds 7 and 8 produced identical distributions (possible, but suspicious)")
	}
}

// TestExhaustiveWitnessReplaysPortedAlgorithms: exhaustive search runs
// the read/write transformations of Corollary 6.14 and the Section 7
// blocking algorithm, and each worst-case witness replays to the reported
// cost on the independent Execution path.
func TestExhaustiveWitnessReplaysPortedAlgorithms(t *testing.T) {
	for _, alg := range []signal.Algorithm{signal.CASRegisterRW(), signal.LLSCRegisterRW(), signal.LeaderBlocking()} {
		kind := memsim.CallPoll
		if !alg.Variant.Polling {
			kind = memsim.CallWait
		}
		cfg := search.Config{
			Factory: alg.New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {kind},
				1: {kind},
				3: {memsim.CallSignal},
			},
			MaxDepth: 12,
			Model:    model.ModelDSM,
		}
		res, err := search.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		rep, err := search.Replay(cfg, res.Witness)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		if res.WorstCost == 0 || rep.Cost.Total != res.WorstCost {
			t.Fatalf("%s: witness replays to %d, reported %d", alg.Name, rep.Cost.Total, res.WorstCost)
		}
		t.Logf("%s: worst %d DSM RMRs over %d paths, witness %v", alg.Name, res.WorstCost, res.Paths, res.Schedule)
	}
}

// TestRejectsOutOfRangeScriptPID: a script for a process the machine does
// not have is a configuration error in every mode and on the checkpointed
// and sharded paths, named by its PID — never silently dropped.
func TestRejectsOutOfRangeScriptPID(t *testing.T) {
	for _, bad := range []memsim.PID{2, -1} {
		cfg := search.Config{
			Factory: signal.Flag().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0:   {memsim.CallPoll},
				1:   {memsim.CallSignal},
				bad: {memsim.CallPoll},
			},
			MaxDepth: 6,
		}
		want := fmt.Sprintf("p%d", bad)
		check := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a script for %s: err = %v, want an error naming it", what, want, err)
			}
		}
		for _, mode := range []search.Mode{search.ModeExhaustive, search.ModeSample} {
			c := cfg
			c.Mode = mode
			_, err := search.Run(c)
			check(mode.String(), err)
		}
		reduced := cfg
		reduced.Reduce = true
		_, err := search.Run(reduced)
		check("reduced", err)
		_, err = search.RunCheckpointed(cfg, search.Checkpoint{Path: filepath.Join(t.TempDir(), "run.rpck")})
		check("checkpointed", err)
		_, err = search.ExpandUnits(cfg, 2)
		check("ExpandUnits", err)
	}
}
