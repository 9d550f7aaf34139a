package explore

// Durability properties of the checkpointed explorer: an uninterrupted
// checkpointed run and a killed-after-every-unit resumed run must both
// reproduce the plain engine's Result exactly, with and without dedup,
// on every seed config.

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/errs"
)

func resumeExploreToCompletion(t *testing.T, cfg Config, ck Checkpoint, step int) (*Result, int) {
	t.Helper()
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 10000 {
			t.Fatal("resume loop did not converge")
		}
		run := ck
		run.Resume = attempt > 0
		run.StopAfter = step
		res, err := RunCheckpointed(cfg, run)
		if err == nil {
			return res, kills
		}
		if !errs.IsInterrupt(err) {
			t.Fatalf("attempt %d: %v (class %v)", attempt, err, errs.Classify(err))
		}
		kills++
	}
}

// TestCheckpointedExploreMatchesPlain: uninterrupted checkpointed runs
// equal the plain engine on every seed config, dedup on and off.
func TestCheckpointedExploreMatchesPlain(t *testing.T) {
	for name, cfg := range seedConfigs() {
		for _, engine := range []Engine{EngineBacktrack, EngineBacktrackDedup} {
			cfg := cfg
			cfg.Engine = engine
			t.Run(name+"/"+engine.String(), func(t *testing.T) {
				t.Parallel()
				want, err := Run(cfg)
				if err != nil {
					t.Fatalf("plain run: %v", err)
				}
				got, err := RunCheckpointed(cfg, Checkpoint{
					Path: filepath.Join(t.TempDir(), "run.rpck"), Tag: name,
				})
				if err != nil {
					t.Fatalf("checkpointed run: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("results differ:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestKillResumeExplore: killing after every committed unit still
// converges to the plain Result on every seed config (dedup engine, the
// checkpointing default).
func TestKillResumeExplore(t *testing.T) {
	for name, cfg := range seedConfigs() {
		cfg := cfg
		cfg.Engine = EngineBacktrackDedup
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			ck := Checkpoint{Path: filepath.Join(t.TempDir(), "run.rpck"), Tag: name}
			got, kills := resumeExploreToCompletion(t, cfg, ck, 1)
			if kills == 0 {
				t.Fatal("test exercised no kills")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("kill/resume diverged after %d kills:\n got %+v\nwant %+v", kills, got, want)
			}
		})
	}
}

// TestInterruptBeforeFirstCommitExplore: a fresh run whose interrupt
// fired before it started still finishes its shallow pass and snapshots
// it, then stops with an Interrupt before the first unit; resuming that
// snapshot yields the uninterrupted run's Result, byte for byte.
func TestInterruptBeforeFirstCommitExplore(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Engine = EngineBacktrackDedup
	want, err := RunCheckpointed(cfg, Checkpoint{Path: filepath.Join(t.TempDir(), "whole.rpck"), Tag: "flag"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rpck")
	interrupt := make(chan struct{})
	close(interrupt)
	if _, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "flag", Interrupt: interrupt}); !errs.IsInterrupt(err) {
		t.Fatalf("interrupted run returned %v, want an Interrupt", err)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatalf("no snapshot to resume: %v", err)
	}
	if len(snap.Done) != 0 || len(snap.Units) == 0 {
		t.Fatalf("snapshot has %d units, %d committed; want a plan and no commit", len(snap.Units), len(snap.Done))
	}
	got, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "flag", Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !reflect.DeepEqual(want, got) || string(wb) != string(gb) {
		t.Fatalf("resumed result %s, uninterrupted %s", gb, wb)
	}
}

// TestExploreResumeRejectsMismatch: kind and fingerprint are both
// enforced on resume.
func TestExploreResumeRejectsMismatch(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Engine = EngineBacktrackDedup
	path := filepath.Join(t.TempDir(), "run.rpck")
	if _, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "flag"}); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	other := cfg
	other.MaxDepth = cfg.MaxDepth - 1
	if _, err := RunCheckpointed(other, Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
		t.Fatalf("depth-changed resume: %v", err)
	}
	nod := cfg
	nod.Engine = EngineBacktrack
	if _, err := RunCheckpointed(nod, Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
		t.Fatalf("engine-changed resume: %v", err)
	}
}
