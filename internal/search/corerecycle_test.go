package search_test

// Recycled engine cores: every search and exploration takes its workers'
// cores from a pool the process keeps, together with the snapshots,
// buffers and policy state of whichever run used them last — another
// engine, another cost model, another process count. These tests pin
// that such a run is indistinguishable from the first run of a fresh
// process, and that a warm run allocates next to nothing.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// coreRunEnv, set to "<mode>:<dir>", makes TestRecycledCoreMatchesFresh
// the child side: it runs one mode and writes its outputs to dir.
const coreRunEnv = "REPRO_CORE_FRESH_RUN"

// coreSteps are the modes TestRecycledCoreMatchesFresh runs in order on
// one P, each on the cores the step before it recycled: a CC search
// finds a DSM search's marks and the other way round, an exploration
// finds a CC search's marks, another exploration's monitor and marks,
// and a CC search an exploration's, and the process count changes
// twice.
var coreSteps = []string{"search-cc", "search-dsm", "search-cc", "explore", "explore", "search-cc", "search-cc-n3", "explore"}

// writeCoreMode runs mode once plainly and once checkpointed, each with
// its own telemetry registry, on one worker. It writes both Results as
// JSON, both registries' counters and the snapshot's .rpck bytes into
// dir.
func writeCoreMode(t *testing.T, mode, dir string) {
	t.Helper()
	put := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plain, durable := telemetry.New(), telemetry.New()
	ck := search.Checkpoint{Path: filepath.Join(dir, "run.rpck"), Tag: mode}
	if mode == "explore" {
		spec := jobspec.Spec{Kind: jobspec.KindExplore, Alg: "fixed-waiters", Waiters: 3, Polls: 2, Depth: 12, Reduce: true, Faults: 1, Workers: 1}
		cfg, err := spec.ExploreConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry = plain
		res, err := explore.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		put("plain.json", res)
		cfg.Telemetry = durable
		if res, err = explore.RunCheckpointed(cfg, ck); err != nil {
			t.Fatal(err)
		}
		put("checkpointed.json", res)
	} else {
		spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Model: "cc", Waiters: 3, Polls: 2, Depth: 12, Workers: 1}
		switch mode {
		case "search-dsm":
			spec.Model = "dsm"
		case "search-cc-n3":
			spec.Waiters = 2
		}
		cfg, err := spec.SearchConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Telemetry = plain
		res, err := search.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		put("plain.json", res)
		cfg.Telemetry = durable
		if res, err = search.RunCheckpointed(cfg, ck); err != nil {
			t.Fatal(err)
		}
		put("checkpointed.json", res)
	}
	put("plain.counters", plain.CounterValues())
	put("checkpointed.counters", durable.CounterValues())
}

// TestRecycledCoreMatchesFresh: runs that take their cores from the
// pool, after runs of other engines, models and process counts on the
// same P, give the Results, telemetry counters (the mark pool's hits and
// misses among them) and snapshot bytes of a fresh process.
func TestRecycledCoreMatchesFresh(t *testing.T) {
	if spec := os.Getenv(coreRunEnv); spec != "" {
		mode, dir, _ := strings.Cut(spec, ":")
		writeCoreMode(t, mode, dir)
		return
	}
	// One P and no collection: each run gets the cores the last one
	// recycled.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fresh := map[string]string{}
	for i, mode := range coreSteps {
		recycled := t.TempDir()
		writeCoreMode(t, mode, recycled)
		if fresh[mode] == "" {
			fresh[mode] = t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledCoreMatchesFresh$")
			cmd.Env = append(os.Environ(), coreRunEnv+"="+mode+":"+fresh[mode])
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%s: fresh process: %v\n%s", mode, err, out)
			}
		}
		names, err := os.ReadDir(fresh[mode])
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 5 {
			t.Fatalf("%s: the fresh process wrote %d files, want 5", mode, len(names))
		}
		for _, n := range names {
			want, err := os.ReadFile(filepath.Join(fresh[mode], n.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(recycled, n.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d (%s): %s differs from a fresh process's:\n got %s\nwant %s", i, mode, n.Name(), got, want)
			}
		}
	}
}

// TestWarmEngineAllocs pins the allocations of a warm job of the job
// benchmark's two engine workloads: a search of its worstcase spec plus
// the replay of the witness, and an exploration of its explore spec.
// Cores, marks, tables, machines and accumulators come from pools, so
// what is left is mostly the run's own frame: the reduction, the
// worker pool, the Result, the replays' trace and schedule strings. A
// run that stops recycling one of the pooled parts exceeds its pin. The
// collector is paused so that it empties no pool between the runs, and
// one P runs them all, so that Put and Get meet on the same per-P pool
// slot from the first warm-up on.
func TestWarmEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ws := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Model: "cc", Waiters: 3, Polls: 4, Depth: 24, Workers: 1}
	worst, err := ws.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	es := jobspec.Spec{Kind: jobspec.KindExplore, Alg: "fixed-waiters", Waiters: 4, Polls: 2, Depth: 14, Reduce: true, Faults: 2, Workers: 1}
	expl, err := es.ExploreConfig()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		pin  float64
		run  func() error
	}{
		{"search.Run plus Replay of the worstcase-cc spec", 137, func() error {
			res, err := search.Run(worst)
			if err != nil {
				return err
			}
			if res.WorstCost != 20 {
				t.Fatalf("worst cost %d, want the 20 the job benchmark pins", res.WorstCost)
			}
			_, err = search.Replay(worst, res.Witness)
			return err
		}},
		{"explore.Run of the explore-por-faults spec", 61, func() error {
			res, err := explore.Run(expl)
			if err != nil {
				return err
			}
			if res.Paths != 56521 {
				t.Fatalf("%d paths, want the 56521 the job benchmark pins", res.Paths)
			}
			return nil
		}},
	}
	for _, r := range runs {
		run := func() {
			if err := r.run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		got := testing.AllocsPerRun(2, run)
		t.Logf("a warm %s allocates %.0f times (pin %.0f)", r.name, got, r.pin)
		if got > r.pin {
			t.Errorf("a warm %s allocates %.0f times, pinned at %.0f", r.name, got, r.pin)
		}
	}
}
