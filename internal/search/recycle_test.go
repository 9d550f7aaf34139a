package search_test

// Recycled memo tables: every search takes its table from a pool the
// process keeps, so a run may inherit the zeroed segments of a larger
// earlier run. These tests pin that such a run is indistinguishable from
// the first run of a fresh process, and that recycling takes the table's
// allocation out of every run after the first.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/jobspec"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// freshRunEnv, set to "<mode>:<dir>", makes TestRecycledTableMatchesFresh
// the child side: it runs one mode and writes its outputs to dir.
const freshRunEnv = "REPRO_SEARCH_FRESH_RUN"

// recycleModes are the runs compared: a plain run, an uninterrupted
// checkpointed run, and a checkpointed run killed after one unit and
// then resumed. All run on one worker, so the order of claims, and with
// it the table's longest probe, is reproducible.
var recycleModes = []string{"plain", "checkpointed", "killed"}

// queueCC is the worstcase job spec of the queue algorithm under CC,
// three waiters polling twice, at depth: about 3,000 memo entries at
// depth 14 and 6,000 at 16, enough to grow most stripes.
func queueCC(t *testing.T, depth int) search.Config {
	t.Helper()
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Model: "cc", Waiters: 3, Polls: 2, Depth: depth, Workers: 1}
	cfg, err := spec.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// writeRecycleMode runs mode on queueCC at depth 14 and writes every
// Result as JSON and every snapshot as its .rpck bytes into dir, with
// the table gauges of the last run.
func writeRecycleMode(t *testing.T, mode, dir string) {
	t.Helper()
	cfg := queueCC(t, 14)
	reg := telemetry.New()
	cfg.Telemetry = reg
	put := func(name string, res *search.Result) {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The table gauges of the last run: its entries, bytes and longest
	// probe.
	defer func() {
		var gauges []byte
		for _, g := range []string{"repro_engine_table_entries", "repro_engine_table_bytes", "repro_engine_table_probe_max"} {
			gauges = fmt.Appendf(gauges, "%s %d\n", g, reg.Gauge(g).Value())
		}
		if err := os.WriteFile(filepath.Join(dir, mode+".gauges"), gauges, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	ck := search.Checkpoint{Path: filepath.Join(dir, mode+".rpck"), Tag: "queue"}
	switch mode {
	case "plain":
		res, err := search.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		put("plain.json", res)
	case "checkpointed":
		res, err := search.RunCheckpointed(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		put("checkpointed.json", res)
	case "killed":
		stop := ck
		stop.Path = filepath.Join(dir, "stopped.rpck")
		stop.StopAfter = 1
		if _, err := search.RunCheckpointed(cfg, stop); !errs.IsInterrupt(err) {
			t.Fatalf("run stopped after one unit: err = %v, want an interrupt", err)
		}
		b, err := os.ReadFile(stop.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ck.Path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ck.Resume = true
		res, err := search.RunCheckpointed(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		put("killed.json", res)
	}
}

// TestRecycledTableMatchesFresh: after a larger search in the same
// process, each mode's Results, snapshot bytes and table gauges equal
// those of a fresh process, which runs the mode on a new table.
func TestRecycledTableMatchesFresh(t *testing.T) {
	if spec := os.Getenv(freshRunEnv); spec != "" {
		mode, dir, _ := strings.Cut(spec, ":")
		writeRecycleMode(t, mode, dir)
		return
	}
	large := queueCC(t, 16)
	for _, mode := range recycleModes {
		// The depth-16 run leaves the pool a table with more segments
		// than the depth-14 runs grow.
		if _, err := search.Run(large); err != nil {
			t.Fatal(err)
		}
		recycled := t.TempDir()
		writeRecycleMode(t, mode, recycled)

		fresh := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledTableMatchesFresh$")
		cmd.Env = append(os.Environ(), freshRunEnv+"="+mode+":"+fresh)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: fresh process: %v\n%s", mode, err, out)
		}
		names, err := os.ReadDir(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) == 0 {
			t.Fatalf("%s: the fresh process wrote nothing", mode)
		}
		for _, n := range names {
			want, err := os.ReadFile(filepath.Join(fresh, n.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(recycled, n.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %s differs from a fresh process's (%d bytes, want %d)", mode, n.Name(), len(got), len(want))
			}
		}
	}
}

// TestRecycledTableAllocs: a second back-to-back run of the job
// benchmark's worstcase spec allocates less than a quarter of its memo
// table's bytes, because it reuses the first run's segments. The
// collector is paused, so the pool keeps the table between the runs, and
// one P runs both, so Put and Get meet on the same per-P pool slot.
func TestRecycledTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "queue", Model: "cc", Waiters: 3, Polls: 4, Depth: 24, Workers: 1}
	cfg, err := spec.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cfg.Telemetry = reg
	if _, err := search.Run(cfg); err != nil {
		t.Fatal(err)
	}
	tableBytes := uint64(reg.Gauge("repro_engine_table_bytes").Value())
	cfg.Telemetry = nil

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := search.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstCost != 20 {
		t.Fatalf("worst cost %d, want the 20 the job benchmark pins", res.WorstCost)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc*4 >= tableBytes {
		t.Fatalf("second run allocated %d bytes, not below a quarter of the table's %d", alloc, tableBytes)
	}
}
