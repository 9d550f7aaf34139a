package core

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
)

// renderTables concatenates the stable textual form of every table a
// suite run returned.
func renderTables(t *testing.T, tables []*Table, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.Text())
	}
	return b.String()
}

func readGolden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func diffLines(t *testing.T, got, want, label string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			t.Fatalf("%s: tables diverge from golden at line %d:\n got:  %q\n want: %q",
				label, i+1, lineAt(gl, i), wl[i])
		}
	}
	t.Fatalf("%s: output longer than golden (%d vs %d lines)", label, len(gl), len(wl))
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// TestExperimentTablesGolden pins E1–E12 and the ablations byte-for-byte
// to the pre-engine-migration fixture on the default (resumable) engine
// tier. Any engine change that perturbs a single event, score or verdict
// anywhere in the pipeline shows up here.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	tables, err := Experiments()
	diffLines(t, renderTables(t, tables, err), readGolden(t), "resumable engine")
}

// TestExperimentsParallelGolden: the suite on four workers renders the
// same bytes as the sequential suite — each experiment is an independent
// deterministic simulation, and tables come back in suite order.
func TestExperimentsParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	tables, err := ExperimentsContext(context.Background(), 4)
	diffLines(t, renderTables(t, tables, err), readGolden(t), "four workers")
}

// TestExperimentsCancelled: a context cancelled before the suite starts
// runs no experiment and reports the context's error.
func TestExperimentsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		tables, err := ExperimentsContext(ctx, workers)
		if len(tables) != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: %d tables, err %v; want none and context.Canceled", workers, len(tables), err)
		}
	}
}
