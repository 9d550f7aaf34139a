package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/signal"
	"repro/internal/trace"
)

func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "flag", "-n", "3", "-polls", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "RMR") || !strings.Contains(out, "totals:") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "flag", "-n", "3", "-polls", "2", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var decoded trace.JSONTrace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.N != 3 || len(decoded.Events) == 0 {
		t.Fatalf("decoded %+v", decoded)
	}
}

// renderAll runs the text dump of every catalogued algorithm at a fixed
// small configuration, recording each algorithm's error line where run
// fails.
func renderAll(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, alg := range signal.All() {
		fmt.Fprintf(&b, "== %s ==\n", alg.Name)
		var buf bytes.Buffer
		err := run([]string{"-alg", alg.Name, "-n", "3", "-polls", "2", "-seed", "1"}, &buf)
		b.Write(buf.Bytes())
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
	}
	return b.String()
}

// TestRunAllGolden pins the per-event trace and both cost columns of one
// signaling history per algorithm, covering SignalAfter, MaxPolls and the
// blocking Wait path.
func TestRunAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("output diverges from golden at line %d:\n got:  %q\n want: %q", i+1, g, wl[i])
		}
	}
	t.Fatalf("output longer than golden (%d vs %d lines)", len(gl), len(wl))
}
