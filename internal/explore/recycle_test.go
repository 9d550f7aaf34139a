package explore

// Recycled claim tables: every exploration with dedup takes its table
// from a pool the process keeps, so a run may inherit the zeroed
// segments of a larger earlier run. This test pins that such a run is
// indistinguishable from the first run of a fresh process.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/telemetry"
)

// freshRunEnv, set to "<mode>:<dir>", makes TestRecycledTableMatchesFresh
// the child side: it runs one mode and writes its outputs to dir.
const freshRunEnv = "REPRO_EXPLORE_FRESH_RUN"

// writeRecycleMode runs mode — a plain run, an uninterrupted
// checkpointed run, or a checkpointed run killed after one unit and then
// resumed — on the reduced queue33 workload at depth 14, one worker, so
// the longest probe is reproducible too. It writes every Result as JSON,
// every snapshot as its .rpck bytes and the last run's table gauges into
// dir.
func writeRecycleMode(t *testing.T, mode, dir string) {
	t.Helper()
	cfg := queue33Config(14, 1)
	cfg.Engine = EngineBacktrackDedupPOR
	reg := telemetry.New()
	cfg.Telemetry = reg
	put := func(name string, res *Result) {
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
	ck := Checkpoint{Path: filepath.Join(dir, mode+".rpck"), Tag: "queue33"}
	switch mode {
	case "plain":
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		put("plain.json", res)
	case "checkpointed":
		res, err := RunCheckpointed(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		put("checkpointed.json", res)
	case "killed":
		stop := ck
		stop.Path = filepath.Join(dir, "stopped.rpck")
		stop.StopAfter = 1
		if _, err := RunCheckpointed(cfg, stop); !errs.IsInterrupt(err) {
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
		res, err := RunCheckpointed(cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		put("killed.json", res)
	}
}

// TestRecycledTableMatchesFresh: after a larger exploration in the same
// process, each mode's Results, snapshot bytes and table gauges equal
// those of a fresh process, which runs the mode on a new table.
func TestRecycledTableMatchesFresh(t *testing.T) {
	if spec := os.Getenv(freshRunEnv); spec != "" {
		mode, dir, _ := strings.Cut(spec, ":")
		writeRecycleMode(t, mode, dir)
		return
	}
	large := queue33Config(16, 1)
	large.Engine = EngineBacktrackDedup
	for _, mode := range []string{"plain", "checkpointed", "killed"} {
		// The depth-16 run leaves the pool a table with more segments
		// than the depth-14 runs grow.
		if _, err := Run(large); err != nil {
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
