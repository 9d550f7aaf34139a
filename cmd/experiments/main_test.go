package main

import (
	"bytes"
	"strings"
	"testing"
)

// printedIDs returns the table IDs of the "== ID ..." headers in out, in order.
func printedIDs(out string) []string {
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			got = append(got, strings.Fields(line)[1])
		}
	}
	return got
}

func TestRunSingleTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-id", "E1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := printedIDs(buf.String()); strings.Join(got, ",") != "E1" {
		t.Fatalf("-id E1 printed tables %v, want [E1]:\n%s", got, buf.String())
	}
}

func TestRunSubset(t *testing.T) {
	for _, tc := range []struct {
		ids  string
		want []string // table IDs printed, in order
	}{
		{"E5", []string{"E5"}},
		// A comma-separated, case-insensitive subset prints in suite order.
		{"e7, E3", []string{"E3", "E7"}},
	} {
		var buf bytes.Buffer
		if err := run([]string{"-id", tc.ids}, &buf); err != nil {
			t.Fatalf("-id %s: %v", tc.ids, err)
		}
		out := buf.String()
		if got := printedIDs(out); strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Fatalf("-id %s printed tables %v, want %v:\n%s", tc.ids, got, tc.want, out)
		}
		if tc.ids == "E5" && !strings.Contains(out, "maxRMR(CC)") {
			t.Fatalf("-id E5 output lacks the maxRMR(CC) column:\n%s", out)
		}
	}
}

// rejectsID checks that -id ids fails before it prints any table.
func rejectsID(t *testing.T, ids string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-id", ids}, &buf); err == nil {
		t.Fatalf("-id %s: want error for unknown table ID", ids)
	}
	if buf.Len() != 0 {
		t.Fatalf("-id %s: printed tables before rejecting the ID:\n%s", ids, buf.String())
	}
}

func TestRunUnknownID(t *testing.T) {
	rejectsID(t, "E99")
}

func TestRunUnknownExperiment(t *testing.T) {
	// One unknown ID in a list rejects the whole list.
	rejectsID(t, "E1,E99")
}
