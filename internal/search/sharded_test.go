package search_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/leakcheck"
	"repro/internal/search"
)

// settled fails t if goroutines started under probe outlive a grace
// period for unwinding.
func settled(t *testing.T, probe leakcheck.Probe) {
	t.Helper()
	if n, stacks := probe.Settle(5 * time.Second); n != 0 {
		t.Fatalf("%d goroutines leaked:\n%s", n, stacks)
	}
}

// shardUnits lists cfg's units in plan order: one worker computes them
// in exactly that order.
func shardUnits(t *testing.T, cfg search.Config) [][]int {
	t.Helper()
	var units [][]int
	_, err := search.RunSharded(cfg, search.Checkpoint{}, 1, func(_ int, prefix []int) (*search.UnitResult, error) {
		units = append(units, slices.Clone(prefix))
		return search.ComputeUnit(cfg, prefix)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) < 4 {
		t.Fatalf("only %d units", len(units))
	}
	return units
}

// TestShardedWorkerFailures: a unit whose worker fails, answers for
// another unit or answers with nothing fails the run with a typed
// Failure naming the unit. The units before it stay committed, no
// goroutine outlives the run, and the snapshot resumes to the Result of
// an uninterrupted run. A clean run leaves no goroutine either.
func TestShardedWorkerFailures(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	units := shardUnits(t, cfg)
	const k = 2
	bad := units[k]
	want, err := search.RunSharded(cfg, search.Checkpoint{}, 3, inProcess(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		code string
		fail func(prefix []int) (*search.UnitResult, error)
	}{
		{"none", "", nil},
		{"error", errs.CodeUnavailable, func([]int) (*search.UnitResult, error) {
			return nil, errs.Failure(errs.CodeUnavailable, "worker lost")
		}},
		{"other-unit", errs.CodeInvalid, func([]int) (*search.UnitResult, error) {
			return search.ComputeUnit(cfg, units[k+1])
		}},
		{"no-result", errs.CodeInvalid, func([]int) (*search.UnitResult, error) { return nil, nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.rpck")
			ck := search.Checkpoint{Path: path, Tag: "flag"}
			compute := func(w int, prefix []int) (*search.UnitResult, error) {
				if tc.fail != nil && slices.Equal(prefix, bad) {
					return tc.fail(prefix)
				}
				return search.ComputeUnit(cfg, prefix)
			}
			var res *search.Result
			probe := leakcheck.Run(func() { res, err = search.RunSharded(cfg, ck, 3, compute) })
			settled(t, probe)
			if tc.fail == nil {
				if err != nil {
					t.Fatal(err)
				}
				assertByteIdentical(t, want, res)
				return
			}
			if !errs.IsFailure(err) || errs.CodeOf(err) != tc.code || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Fatalf("got %v, want a %s Failure naming unit %v", err, tc.code, bad)
			}
			snap, rerr := checkpoint.Read(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !slices.Equal(snap.Done, []uint32{0, 1}) {
				t.Fatalf("snapshot committed units %v, want the %d before the failed one", snap.Done, k)
			}
			ck.Resume = true
			res, err = search.RunSharded(cfg, ck, 3, inProcess(cfg))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertByteIdentical(t, want, res)
		})
	}
}

// TestShardedInterrupt: closing the interrupt channel mid-run stops a
// sharded run with an Interrupt, joins its goroutines, and leaves a
// snapshot that resumes to the uninterrupted Result. One worker computes
// the units in order, so the two before the interrupting one have
// finished, and commit, before the interrupt.
func TestShardedInterrupt(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	units := shardUnits(t, cfg)
	want, err := search.RunSharded(cfg, search.Checkpoint{}, 2, inProcess(cfg))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rpck")
	interrupt := make(chan struct{})
	var once sync.Once
	ck := search.Checkpoint{Path: path, Tag: "flag", Interrupt: interrupt}
	compute := func(_ int, prefix []int) (*search.UnitResult, error) {
		if slices.Equal(prefix, units[2]) {
			once.Do(func() { close(interrupt) })
		}
		return search.ComputeUnit(cfg, prefix)
	}
	probe := leakcheck.Run(func() { _, err = search.RunSharded(cfg, ck, 1, compute) })
	settled(t, probe)
	if !errs.IsInterrupt(err) {
		t.Fatalf("interrupted run returned %v, want an Interrupt", err)
	}
	ck.Interrupt, ck.Resume = nil, true
	res, err := search.RunSharded(cfg, ck, 2, inProcess(cfg))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertByteIdentical(t, want, res)
}

// TestShardedInterruptBeforeFirstCommit: a fresh sharded run whose
// interrupt fired before it started stops with an Interrupt before the
// first commit, joins its goroutines and leaves its plan snapshot;
// resuming that snapshot yields the uninterrupted run's Result.
func TestShardedInterruptBeforeFirstCommit(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	want, err := search.RunSharded(cfg, search.Checkpoint{}, 2, inProcess(cfg))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.rpck")
	interrupt := make(chan struct{})
	close(interrupt)
	ck := search.Checkpoint{Path: path, Tag: "flag", Interrupt: interrupt}
	probe := leakcheck.Run(func() { _, err = search.RunSharded(cfg, ck, 2, inProcess(cfg)) })
	settled(t, probe)
	if !errs.IsInterrupt(err) {
		t.Fatalf("interrupted run returned %v, want an Interrupt", err)
	}
	assertPlanOnly(t, path)
	ck.Interrupt, ck.Resume = nil, true
	res, err := search.RunSharded(cfg, ck, 2, inProcess(cfg))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertByteIdentical(t, want, res)
}

// TestShardedSnapshotDeterministic: units commit in plan order, so the
// snapshot after k commits is the same file for any worker count.
func TestShardedSnapshotDeterministic(t *testing.T) {
	cfg := seedConfigs()["multi-signaler"]
	var first []byte
	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "run.rpck")
		_, err := search.RunSharded(cfg, search.Checkpoint{Path: path, Tag: "x", StopAfter: 3}, workers, inProcess(cfg))
		if !errs.IsInterrupt(err) {
			t.Fatalf("%d workers: %v, want an Interrupt", workers, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("%d workers wrote a different snapshot after 3 commits", workers)
		}
	}
}

// TestShardedResumeNeedsPath: a run without a snapshot path keeps
// nothing on disk, so asking it to resume is invalid input.
func TestShardedResumeNeedsPath(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	_, err := search.RunSharded(cfg, search.Checkpoint{Resume: true}, 2, inProcess(cfg))
	if errs.CodeOf(err) != errs.CodeInvalid {
		t.Fatalf("resume without a path: %v, want a %s Failure", err, errs.CodeInvalid)
	}
}
