package search_test

// Durability properties of the checkpointed search: an uninterrupted
// checkpointed run, a killed-and-resumed run (at every kill point), and
// a sharded run on in-process workers must all reproduce the plain
// in-memory engine's Result — for the witness fields exactly in all
// regimes, and byte-for-byte (counters included) in the shared-table
// checkpointed regime, on every seed config under both DSM and CC.

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/model"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// ckModels is the model axis of the durability properties (per the
// issue: DSM and CC).
func ckModels() []model.Scorer {
	return []model.Scorer{model.ModelDSM, model.ModelCC}
}

// resumeToCompletion drives RunCheckpointed with repeated deterministic
// kills (stop every `step` units) until the run finally completes,
// returning the result and the number of interrupted invocations.
func resumeToCompletion(t *testing.T, cfg search.Config, ck search.Checkpoint, step int) (*search.Result, int) {
	t.Helper()
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 10000 {
			t.Fatal("resume loop did not converge")
		}
		run := ck
		run.Resume = attempt > 0
		run.StopAfter = step
		res, err := search.RunCheckpointed(cfg, run)
		if err == nil {
			return res, kills
		}
		if !errs.IsInterrupt(err) {
			t.Fatalf("attempt %d: %v (class %v)", attempt, err, errs.Classify(err))
		}
		kills++
	}
}

// TestCheckpointedMatchesPlain: an uninterrupted checkpointed run equals
// the plain run byte-for-byte, on every seed config × model.
func TestCheckpointedMatchesPlain(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, m := range ckModels() {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				want, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				got, err := search.RunCheckpointed(cfg, search.Checkpoint{
					Path: filepath.Join(t.TempDir(), "run.rpck"), Tag: name,
				})
				if err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				assertByteIdentical(t, want, got)
			})
		}
	}
}

// TestKillResumeByteIdentical: killing after every single committed unit
// and resuming still converges to the byte-identical plain Result, on
// every seed config × model.
func TestKillResumeByteIdentical(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, m := range ckModels() {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				want, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				ck := search.Checkpoint{Path: filepath.Join(t.TempDir(), "run.rpck"), Tag: name}
				got, kills := resumeToCompletion(t, cfg, ck, 1)
				if kills == 0 {
					t.Fatal("test exercised no kills (config has no units?)")
				}
				assertByteIdentical(t, want, got)

				// Resuming the already-complete snapshot redoes only the
				// spine pass and reproduces the result again.
				again, err := search.RunCheckpointed(cfg, search.Checkpoint{
					Path: ck.Path, Tag: name, Resume: true,
				})
				if err != nil {
					t.Fatalf("resume after completion: %v", err)
				}
				assertByteIdentical(t, want, again)
			})
		}
	}
}

// TestInterruptBeforeFirstCommit: a fresh run whose interrupt fired
// before it started stops with an Interrupt before the first unit and
// leaves its plan snapshot; resuming that snapshot yields the
// uninterrupted run's Result, byte for byte.
func TestInterruptBeforeFirstCommit(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	want, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: filepath.Join(t.TempDir(), "whole.rpck"), Tag: "flag"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rpck")
	interrupt := make(chan struct{})
	close(interrupt)
	if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", Interrupt: interrupt}); !errs.IsInterrupt(err) {
		t.Fatalf("interrupted run returned %v, want an Interrupt", err)
	}
	assertPlanOnly(t, path)
	got, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertByteIdentical(t, want, got)
}

// assertPlanOnly fails t unless the snapshot at path holds a unit plan
// and no committed unit.
func assertPlanOnly(t *testing.T, path string) {
	t.Helper()
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatalf("no snapshot to resume: %v", err)
	}
	if len(snap.Done) != 0 || len(snap.Units) == 0 {
		t.Fatalf("snapshot has %d units, %d committed; want a plan and no commit", len(snap.Units), len(snap.Done))
	}
}

// inProcess is RunSharded's compute on ComputeUnit: every worker in
// this process.
func inProcess(cfg search.Config) func(int, []int) (*search.UnitResult, error) {
	return func(_ int, prefix []int) (*search.UnitResult, error) { return search.ComputeUnit(cfg, prefix) }
}

// TestShardedMatchesPlain: computing every unit against a private table
// (the cross-process regime) and merging yields the plain WorstCost and
// lexicographically least Witness; the merged counter regime is itself
// deterministic for any worker count and so any assignment of units to
// workers.
func TestShardedMatchesPlain(t *testing.T) {
	for _, name := range []string{"flag-2proc", "multi-signaler"} {
		cfg := seedConfigs()[name]
		for _, m := range ckModels() {
			cfg := cfg
			cfg.Model = m
			t.Run(name+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				want, err := search.Run(cfg)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				merged, err := search.RunSharded(cfg, search.Checkpoint{}, 1, inProcess(cfg))
				if err != nil {
					t.Fatalf("sharded run: %v", err)
				}
				if merged.WorstCost != want.WorstCost || !reflect.DeepEqual(merged.Witness, want.Witness) {
					t.Fatalf("sharded answer (%d, %v) != plain (%d, %v)",
						merged.WorstCost, merged.Witness, want.WorstCost, want.Witness)
				}
				if !reflect.DeepEqual(merged.Schedule, want.Schedule) {
					t.Fatalf("sharded schedule diverges: %v vs %v", merged.Schedule, want.Schedule)
				}

				// More workers hand the units out in another order, and
				// with 64 every unit gets a worker of its own; no field
				// may move.
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

// TestResumeRejectsMismatch: a snapshot only resumes the exact
// configuration that wrote it.
func TestResumeRejectsMismatch(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	path := filepath.Join(t.TempDir(), "run.rpck")
	if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag"}); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	deeper := cfg
	deeper.MaxDepth = cfg.MaxDepth + 1
	_, err := search.RunCheckpointed(deeper, search.Checkpoint{Path: path, Tag: "flag", Resume: true})
	if err == nil {
		t.Fatal("depth-changed resume accepted")
	}
	if errs.CodeOf(err) != errs.CodeConflict {
		t.Fatalf("mismatch resume: code %q, want %q (%v)", errs.CodeOf(err), errs.CodeConflict, err)
	}
	if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "other", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
		t.Fatalf("tag-changed resume: %v", err)
	}
}

// TestCraftedCostRejected: a memo cost outside [-1, MaxInt32] from
// outside bytes — a .rpck snapshot entry or a shard worker's entry — fails
// with CodeInvalid instead of being truncated into the table's int32
// slot.
func TestCraftedCostRejected(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	path := filepath.Join(t.TempDir(), "run.rpck")
	if _, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", StopAfter: 1}); !errs.IsInterrupt(err) {
		t.Fatalf("seed run: %v, want an interrupt", err)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) == 0 {
		t.Fatal("seed snapshot holds no entries")
	}
	for _, cost := range []int{-2, math.MaxInt32 + 1, math.MinInt64} {
		crafted := *snap
		crafted.Entries = append([]checkpoint.Entry(nil), snap.Entries...)
		crafted.Entries[0].Cost = cost
		if err := checkpoint.Write(path, &crafted); err != nil {
			t.Fatal(err)
		}
		_, err := search.RunCheckpointed(cfg, search.Checkpoint{Path: path, Tag: "flag", Resume: true})
		if errs.CodeOf(err) != errs.CodeInvalid {
			t.Fatalf("resume with cost %d: %v, want a %s failure", cost, err, errs.CodeInvalid)
		}
		_, err = search.RunSharded(cfg, search.Checkpoint{}, 2, func(_ int, prefix []int) (*search.UnitResult, error) {
			res, err := search.ComputeUnit(cfg, prefix)
			if err == nil {
				res.Entry.Cost = cost
			}
			return res, err
		})
		if errs.CodeOf(err) != errs.CodeInvalid {
			t.Fatalf("shard entry with cost %d: %v, want a %s failure", cost, err, errs.CodeInvalid)
		}
	}
}

// TestTableGauges: a telemetry run, in memory or checkpointed, leaves
// the table gauges at the memo table's size: one entry per won claim.
func TestTableGauges(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	for _, checkpointed := range []bool{false, true} {
		reg := telemetry.New()
		cfg.Telemetry = reg
		var err error
		if checkpointed {
			_, err = search.RunCheckpointed(cfg, search.Checkpoint{Path: filepath.Join(t.TempDir(), "run.rpck"), Tag: "flag"})
		} else {
			_, err = search.Run(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		entries := reg.Gauge("repro_engine_table_entries").Value()
		misses := reg.Counter("repro_engine_memo_misses_total").Value()
		if entries == 0 || entries != misses {
			t.Fatalf("checkpointed=%v: table entries gauge %d, want the %d memo misses", checkpointed, entries, misses)
		}
		if bytes := reg.Gauge("repro_engine_table_bytes").Value(); bytes < 20*entries {
			t.Fatalf("checkpointed=%v: table bytes gauge %d for %d entries", checkpointed, bytes, entries)
		}
	}
}

// assertByteIdentical fails unless the two results agree structurally
// and serialize to identical JSON bytes.
func assertByteIdentical(t *testing.T, want, got *search.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("results differ:\n got %+v\nwant %+v", got, want)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wb) != string(gb) {
		t.Fatalf("JSON bytes differ:\n got %s\nwant %s", gb, wb)
	}
}
