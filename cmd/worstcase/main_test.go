package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/jobspec"
	"repro/internal/leakcheck"
	"repro/internal/search"
)

// TestMain doubles as the shard worker entry point: the -shards
// coordinator re-executes os.Executable(), which under `go test` is this
// test binary. The worker environment variable routes such a
// re-execution into runWorker before the testing package touches the
// command line.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(workerEnv); ok {
		if err := runWorker(spec, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "worstcase:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeMatchesGolden: the deterministic stdout summaries of the CI
// smoke commands match the committed golden files byte for byte (the CI
// job runs the same diff against the built binary).
func TestSmokeMatchesGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"testdata/smoke_exhaustive.golden",
			[]string{"-alg", "flag", "-n", "2", "-depth", "10", "-mode", "exhaustive"}},
		{"testdata/smoke_sample.golden",
			[]string{"-alg", "flag", "-n", "2", "-depth", "10", "-mode", "sample", "-seed", "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := run(tc.args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Fatalf("summary drifted from golden:\n got:\n%s want:\n%s", out.String(), want)
			}
		})
	}
}

// TestSummaryDeterministicAcrossWorkers: stdout is identical for any
// -workers value (only the stderr timing line may differ), the property
// that lets the smoke job run without pinning a worker count.
func TestSummaryDeterministicAcrossWorkers(t *testing.T) {
	for _, mode := range []string{"exhaustive", "sample"} {
		var base string
		for i, workers := range []string{"1", "2", "8"} {
			var out strings.Builder
			args := []string{"-alg", "queue", "-n", "2", "-depth", "9", "-mode", mode,
				"-seed", "3", "-walks", "64", "-workers", workers}
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				base = out.String()
			} else if out.String() != base {
				t.Fatalf("mode %s: -workers %s changed the summary:\n%s vs\n%s",
					mode, workers, out.String(), base)
			}
		}
	}
}

// TestJSONRoundTrip: -json emits one object that unmarshals back into the
// document type and re-marshals identically, for both modes.
func TestJSONRoundTrip(t *testing.T) {
	for _, mode := range []string{"exhaustive", "sample"} {
		var out strings.Builder
		args := []string{"-alg", "flag", "-n", "2", "-depth", "8", "-mode", mode,
			"-seed", "1", "-walks", "32", "-json"}
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		raw := out.String()
		if strings.Count(strings.TrimSpace(raw), "\n") != 0 {
			t.Fatalf("mode %s: -json printed more than one object:\n%s", mode, raw)
		}
		var doc jobspec.WorstcaseDoc
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			t.Fatalf("mode %s: unmarshal: %v\n%s", mode, err, raw)
		}
		again, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var doc2 jobspec.WorstcaseDoc
		if err := json.Unmarshal(again, &doc2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(doc, doc2) {
			t.Fatalf("mode %s: round trip changed the document:\n %+v\n %+v", mode, doc, doc2)
		}
		if doc.Algorithm != "flag" || doc.Result == nil || doc.Result.Mode.String() != mode {
			t.Fatalf("mode %s: document missing fields: %s", mode, raw)
		}
	}
}

// TestReduceAgreesEndToEnd: -reduce reports the identical worst cost on
// the same workload, with a witness line present and the reduction
// statistics appended; the -json document carries reduced=true and the
// counters. Sample mode rejects -reduce.
func TestReduceAgreesEndToEnd(t *testing.T) {
	base := []string{"-alg", "flag", "-n", "3", "-polls", "2", "-depth", "12"}
	plain := mustRun(t, base...)
	reduced := mustRun(t, append(append([]string(nil), base...), "-reduce")...)
	costLine := strings.SplitN(plain, "\n", 2)[0]
	if !strings.HasPrefix(reduced, costLine) {
		t.Fatalf("-reduce changed the worst-cost line:\n got:\n%s want first line:\n%s", reduced, costLine)
	}
	if !strings.Contains(reduced, "steps slept:") || !strings.Contains(reduced, "symmetry merges:") {
		t.Fatalf("-reduce output missing reduction statistics:\n%s", reduced)
	}
	raw := mustRun(t, append(append([]string(nil), base...), "-reduce", "-json")...)
	var doc jobspec.WorstcaseDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	if doc.Result == nil || !doc.Result.Reduced || doc.Result.StepsSlept == 0 {
		t.Fatalf("-reduce -json document missing reduction fields: %s", raw)
	}
	if err := run([]string{"-mode", "sample", "-reduce"}, io.Discard, io.Discard); err == nil {
		t.Fatal("sample mode accepted -reduce")
	}
}

// TestFlagValidation: unknown algorithms, models and modes are rejected;
// non-polling algorithms are refused; sample mode neither checkpoints nor
// shards.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "nope"},
		{"-model", "numa"},
		{"-mode", "psychic"},
		{"-alg", "leader-blocking"},
		{"-mode", "sample", "-checkpoint", "x.rpck"},
		{"-mode", "sample", "-shards", "2"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// mustRun runs the CLI in-process and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestCheckpointedSummaryMatchesPlain: -checkpoint changes durability,
// not output — stdout (including -json) is byte-identical to a plain run.
func TestCheckpointedSummaryMatchesPlain(t *testing.T) {
	base := []string{"-alg", "queue", "-n", "2", "-polls", "2", "-depth", "9"}
	for _, extra := range [][]string{nil, {"-json"}} {
		args := append(append([]string(nil), base...), extra...)
		plain := mustRun(t, args...)
		ck := filepath.Join(t.TempDir(), "run.rpck")
		got := mustRun(t, append(args, "-checkpoint", ck, "-progress", "50ms")...)
		if got != plain {
			t.Fatalf("checkpointed stdout drifted (%v):\n got:\n%s want:\n%s", extra, got, plain)
		}
	}
}

// TestStopAfterResume: -stop-after interrupts with the snapshot on disk,
// and -resume finishes with stdout byte-identical to an uninterrupted run.
func TestStopAfterResume(t *testing.T) {
	base := []string{"-alg", "flag", "-n", "2", "-depth", "10"}
	plain := mustRun(t, base...)
	ck := filepath.Join(t.TempDir(), "run.rpck")
	args := append(append([]string(nil), base...), "-checkpoint", ck)

	err := run(append(args, "-stop-after", "1"), io.Discard, io.Discard)
	if !errs.IsInterrupt(err) {
		t.Fatalf("-stop-after returned %v, want an Interrupt", err)
	}
	if _, statErr := os.Stat(ck); statErr != nil {
		t.Fatalf("no snapshot after the interrupt: %v", statErr)
	}
	got := mustRun(t, append(args, "-resume")...)
	if got != plain {
		t.Fatalf("resumed stdout drifted:\n got:\n%s want:\n%s", got, plain)
	}

	// Resuming a finished run recomputes only the spine and agrees again.
	again := mustRun(t, append(args, "-resume")...)
	if again != plain {
		t.Fatalf("second resume drifted:\n got:\n%s want:\n%s", again, plain)
	}
}

// TestShardedEndToEnd: -shards spawns real worker processes (this test
// binary, re-executed via the TestMain hook) and reproduces the plain
// run's worst cost and witness exactly. The path/prune tallies form the
// documented fresh-table-per-unit regime, so only the first two summary
// lines are compared against the plain run; the full sharded output must
// be identical across shard counts.
func TestShardedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := []string{"-alg", "flag", "-n", "2", "-depth", "10"}
	plain := mustRun(t, base...)
	sharded2 := mustRun(t, append(append([]string(nil), base...), "-shards", "2")...)
	sharded3 := mustRun(t, append(append([]string(nil), base...), "-shards", "3")...)
	if sharded2 != sharded3 {
		t.Fatalf("shard count changed the summary:\n%s vs\n%s", sharded2, sharded3)
	}
	plainLines := strings.SplitN(plain, "\n", 3)
	shardLines := strings.SplitN(sharded2, "\n", 3)
	for i := 0; i < 2; i++ {
		if shardLines[i] != plainLines[i] {
			t.Fatalf("sharded line %d drifted:\n got: %s\nwant: %s", i, shardLines[i], plainLines[i])
		}
	}
}

// TestShardedStopResume: a sharded coordinator interrupted by -stop-after
// resumes from its snapshot to the byte-identical output of an
// uninterrupted sharded run.
func TestShardedStopResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := []string{"-alg", "flag", "-n", "2", "-depth", "10", "-shards", "2"}
	full := mustRun(t, base...)
	ck := filepath.Join(t.TempDir(), "run.rpck")
	args := append(append([]string(nil), base...), "-checkpoint", ck)

	err := run(append(args, "-stop-after", "1"), io.Discard, io.Discard)
	if !errs.IsInterrupt(err) {
		t.Fatalf("-stop-after returned %v, want an Interrupt", err)
	}
	got := mustRun(t, append(args, "-resume")...)
	if got != full {
		t.Fatalf("resumed sharded stdout drifted:\n got:\n%s want:\n%s", got, full)
	}
}

// TestShardedRejectsUnsharded: the two snapshot regimes cannot resume
// into each other — the fingerprints differ by the sharded marker.
func TestShardedRejectsUnsharded(t *testing.T) {
	base := []string{"-alg", "flag", "-n", "2", "-depth", "10"}
	ck := filepath.Join(t.TempDir(), "run.rpck")
	mustRun(t, append(append([]string(nil), base...), "-checkpoint", ck)...)
	err := run(append(append([]string(nil), base...), "-shards", "2", "-checkpoint", ck, "-resume"),
		io.Discard, io.Discard)
	if !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeConflict {
		t.Fatalf("sharded resume of an unsharded snapshot returned %v, want a conflict Failure", err)
	}
}

// TestShardedCompilesFullSpec: shard workers compile the coordinator's
// whole job spec, so fault and reduction flags reach them. For each flag
// set and shard count, the worst-cost and witness lines equal the
// unsharded run's, and the -json document equals an in-process
// search.RunSharded of the same spec on ComputeUnit workers.
func TestShardedCompilesFullSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := []string{"-alg", "flag", "-n", "2", "-depth", "8"}
	for _, tc := range []struct {
		extra []string
		spec  jobspec.Spec // the same job, for the in-process run
	}{
		{[]string{"-faults", "1"}, jobspec.Spec{Faults: 1}},
		{[]string{"-reduce"}, jobspec.Spec{Reduce: true}},
		{[]string{"-faults", "1", "-fault-kinds", "crash", "-fault-vol", "owned"},
			jobspec.Spec{Faults: 1, FaultKinds: "crash", FaultVol: "owned"}},
	} {
		args := append(append([]string(nil), base...), tc.extra...)
		plain := strings.SplitN(mustRun(t, args...), "\n", 3)
		spec := tc.spec
		spec.Kind, spec.Alg, spec.Waiters, spec.Depth = jobspec.KindWorstcase, "flag", 2, 8
		cfg, err := spec.SearchConfig()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", tc.extra, shards), func(t *testing.T) {
				sharded := append(append([]string(nil), args...), "-shards", fmt.Sprint(shards))
				lines := strings.SplitN(mustRun(t, sharded...), "\n", 3)
				for i := 0; i < 2; i++ {
					if lines[i] != plain[i] {
						t.Fatalf("sharded line %d drifted:\n got: %s\nwant: %s", i, lines[i], plain[i])
					}
				}
				res, err := search.RunSharded(cfg, search.Checkpoint{Tag: spec.Alg}, shards,
					func(_ int, prefix []int) (*search.UnitResult, error) { return search.ComputeUnit(cfg, prefix) })
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(jobspec.NewWorstcaseDoc(&spec, res))
				if err != nil {
					t.Fatal(err)
				}
				got := mustRun(t, append(sharded, "-json")...)
				if got != string(want)+"\n" {
					t.Fatalf("-json drifted from the in-process sharded run:\n got: %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// TestShardWorkerKilled: a worker process killed mid-run fails the run
// with an unavailable Failure naming the unit. No goroutine and no child
// process is left, and the snapshot resumes to the output of an
// uninterrupted sharded run.
func TestShardWorkerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := []string{"-alg", "flag", "-n", "2", "-depth", "10", "-shards", "2"}
	full := mustRun(t, base...)
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Depth: 10}
	cfg, err := spec.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "run.rpck")
	procs, err := newShardProcs(spec, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	var victim []int
	compute := func(i int, prefix []int) (*search.UnitResult, error) {
		mu.Lock()
		calls++
		w := procs.procs[i] // only goroutine i touches worker i
		kill := victim == nil && calls >= 3 && w != nil
		if kill {
			victim = prefix
		}
		mu.Unlock()
		if kill {
			// Freeze the worker so the unit sent next gets no reply, then
			// kill it while the coordinator waits for that reply.
			if err := syscall.Kill(w.cmd.Process.Pid, syscall.SIGSTOP); err != nil {
				t.Error(err)
			}
			go func() {
				time.Sleep(20 * time.Millisecond)
				w.cmd.Process.Kill()
			}()
		}
		return procs.compute(i, prefix)
	}
	probe := leakcheck.Run(func() {
		_, err = search.RunSharded(cfg, search.Checkpoint{Path: ck, Tag: "flag"}, 2, compute)
	})
	if !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeUnavailable || !strings.Contains(err.Error(), fmt.Sprint(victim)) {
		t.Fatalf("run with a killed worker returned %v, want an unavailable Failure naming unit %v", err, victim)
	}
	t.Logf("killed worker: %v", err)
	procs.close(true)
	if n, stacks := probe.Settle(5 * time.Second); n != 0 {
		t.Fatalf("%d goroutines leaked:\n%s", n, stacks)
	}
	for i, w := range procs.procs {
		if w == nil {
			continue
		}
		if w.cmd.ProcessState == nil {
			t.Fatalf("worker %d was never reaped", i)
		}
		if err := syscall.Kill(w.cmd.Process.Pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Fatalf("worker %d (pid %d) still exists: %v", i, w.cmd.Process.Pid, err)
		}
	}
	got := mustRun(t, append(append([]string(nil), base...), "-checkpoint", ck, "-resume")...)
	if got != full {
		t.Fatalf("resumed sharded stdout drifted:\n got:\n%s want:\n%s", got, full)
	}
}
