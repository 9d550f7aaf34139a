package core

import (
	"os"
	"strings"
	"testing"
)

// renderTables concatenates every experiment table's stable textual form.
func renderTables(t *testing.T) string {
	t.Helper()
	tables, err := Experiments()
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
	diffLines(t, renderTables(t), readGolden(t), "resumable engine")
}
