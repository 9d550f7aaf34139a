package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/jobspec"
)

func TestRunExplore(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "flag", "-waiters", "2", "-polls", "2", "-depth", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "specification holds on all") {
		t.Fatalf("unexpected output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), "engine: backtracking+dedup") ||
		!strings.Contains(buf.String(), "states deduped:") ||
		!strings.Contains(buf.String(), "workers:") {
		t.Fatalf("missing engine statistics: %s", buf.String())
	}
}

// TestRunExploreLegacyEngine: -dedup=false runs plain backtracking.
func TestRunExploreLegacyEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "flag", "-waiters", "2", "-polls", "2", "-depth", "8", "-dedup=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "engine: backtracking, states deduped: 0,") {
		t.Fatalf("-dedup=false should run plain backtracking: %s", buf.String())
	}
}

// TestRunExploreReduce: -reduce selects the POR engine, reports the
// reduction counters, and agrees with the plain dedup engine on the
// verdict while exploring no more histories; combining it with
// -dedup=false is rejected.
func TestRunExploreReduce(t *testing.T) {
	args := []string{"-alg", "flag", "-waiters", "3", "-polls", "2", "-depth", "12"}
	var plain, reduced bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-reduce"), &reduced); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reduced.String(), "engine: backtracking+dedup+por") ||
		!strings.Contains(reduced.String(), "steps slept:") ||
		!strings.Contains(reduced.String(), "symmetry merges:") {
		t.Fatalf("-reduce output missing reduction statistics: %s", reduced.String())
	}
	if !strings.Contains(reduced.String(), "specification holds on all") {
		t.Fatalf("-reduce changed the verdict: %s", reduced.String())
	}
	var doc jobspec.ExploreDoc
	var buf bytes.Buffer
	if err := run(append(args, "-reduce", "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.StepsSlept == 0 {
		t.Fatalf("-reduce -json reported no slept steps: %s", buf.String())
	}
	if err := run([]string{"-reduce", "-dedup=false"}, io.Discard); err == nil {
		t.Fatal("-reduce -dedup=false accepted")
	}
}

func TestRunExploreRejectsBlockingOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-alg", "leader-blocking"}, &buf); err == nil {
		t.Fatal("want error for non-polling algorithm")
	}
}

// summary extracts the deterministic output lines: everything except the
// final workers/elapsed/throughput line, which is the only
// timing-dependent one.
func summary(t *testing.T, out string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 output lines, got %d: %s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "workers: ") {
		t.Fatalf("last line should report workers/elapsed: %s", out)
	}
	return strings.Join(lines[:2], "\n")
}

// TestRunExploreWorkersIdenticalSummary: the deterministic summary —
// interleavings, truncations, dedup and depth statistics — is identical
// whether the schedule tree is explored by one worker or sharded across
// several.
func TestRunExploreWorkersIdenticalSummary(t *testing.T) {
	args := []string{"-alg", "queue", "-waiters", "2", "-polls", "2", "-depth", "11"}
	var one bytes.Buffer
	if err := run(append(args, "-workers", "1"), &one); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"2", "4"} {
		var many bytes.Buffer
		if err := run(append(args, "-workers", workers), &many); err != nil {
			t.Fatal(err)
		}
		if got, want := summary(t, many.String()), summary(t, one.String()); got != want {
			t.Fatalf("-workers %s summary diverged:\n-workers 1:\n%s\n-workers %s:\n%s",
				workers, want, workers, got)
		}
		if !strings.Contains(many.String(), "workers: "+workers+",") {
			t.Fatalf("-workers %s not reported: %s", workers, many.String())
		}
	}
}

// TestRunExploreJSONRoundTrip: -json emits one object that unmarshals
// back into the output type and re-marshals identically, and its counters
// agree with the text summary's.
func TestRunExploreJSONRoundTrip(t *testing.T) {
	args := []string{"-alg", "queue", "-waiters", "2", "-polls", "2", "-depth", "9"}
	var buf bytes.Buffer
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	if strings.Count(strings.TrimSpace(raw), "\n") != 0 {
		t.Fatalf("-json printed more than one object:\n%s", raw)
	}
	var doc jobspec.ExploreDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, raw)
	}
	again, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var doc2 jobspec.ExploreDoc
	if err := json.Unmarshal(again, &doc2); err != nil {
		t.Fatal(err)
	}
	if doc != doc2 {
		t.Fatalf("round trip changed the document:\n %+v\n %+v", doc, doc2)
	}
	if doc.Algorithm != "queue" || doc.Engine != "backtracking+dedup" || !doc.SpecHolds || doc.Paths == 0 {
		t.Fatalf("document missing fields: %s", raw)
	}
	var text bytes.Buffer
	if err := run(args, &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), fmt.Sprintf("%d interleavings", doc.Paths)) ||
		!strings.Contains(text.String(), fmt.Sprintf("states deduped: %d", doc.StatesDeduped)) {
		t.Fatalf("JSON counters disagree with the text summary:\n%s\n%s", raw, text.String())
	}
}

// TestExploreCheckpointedSummaryMatchesPlain: -checkpoint changes
// durability, not output — the deterministic summary lines (and the
// -json document) are byte-identical to a plain run's.
func TestExploreCheckpointedSummaryMatchesPlain(t *testing.T) {
	args := []string{"-alg", "queue", "-waiters", "2", "-polls", "2", "-depth", "10"}
	ck := filepath.Join(t.TempDir(), "run.rpck")

	var plain, durable bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-checkpoint", ck), &durable); err != nil {
		t.Fatal(err)
	}
	if got, want := summary(t, durable.String()), summary(t, plain.String()); got != want {
		t.Fatalf("checkpointed summary drifted:\n got:\n%s want:\n%s", got, want)
	}

	var plainJSON, durableJSON bytes.Buffer
	if err := run(append(args, "-json"), &plainJSON); err != nil {
		t.Fatal(err)
	}
	ck2 := filepath.Join(t.TempDir(), "run.rpck")
	if err := run(append(args, "-json", "-checkpoint", ck2), &durableJSON); err != nil {
		t.Fatal(err)
	}
	if durableJSON.String() != plainJSON.String() {
		t.Fatalf("checkpointed -json drifted:\n got:%s want:%s", durableJSON.String(), plainJSON.String())
	}
}

// TestExploreStopAfterResume: -stop-after interrupts with the snapshot on
// disk, and -resume finishes with the deterministic summary of an
// uninterrupted run.
func TestExploreStopAfterResume(t *testing.T) {
	args := []string{"-alg", "flag", "-waiters", "2", "-polls", "2", "-depth", "10"}
	var plain bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "run.rpck")
	durable := append(append([]string(nil), args...), "-checkpoint", ck)

	err := run(append(durable, "-stop-after", "1"), io.Discard)
	if !errs.IsInterrupt(err) {
		t.Fatalf("-stop-after returned %v, want an Interrupt", err)
	}
	var resumed bytes.Buffer
	if err := run(append(durable, "-resume"), &resumed); err != nil {
		t.Fatal(err)
	}
	if got, want := summary(t, resumed.String()), summary(t, plain.String()); got != want {
		t.Fatalf("resumed summary drifted:\n got:\n%s want:\n%s", got, want)
	}
}

// TestExploreCheckpointWithoutDedup: -dedup=false checkpoints like every
// other engine, to the summary of a plain run.
func TestExploreCheckpointWithoutDedup(t *testing.T) {
	args := []string{"-alg", "flag", "-waiters", "2", "-polls", "2", "-depth", "8", "-dedup=false", "-workers", "1"}
	var plain, durable bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "run.rpck")
	if err := run(append(args, "-checkpoint", ck), &durable); err != nil {
		t.Fatal(err)
	}
	if got, want := summary(t, durable.String()), summary(t, plain.String()); got != want {
		t.Fatalf("checkpointed summary drifted:\n got:\n%s want:\n%s", got, want)
	}
}

// TestRunExploreBadFlags: unknown flags and malformed values surface as
// errors rather than being silently ignored.
func TestRunExploreBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("want error for unknown flag")
	}
	if err := run([]string{"-workers", "many"}, &buf); err == nil {
		t.Fatal("want error for malformed -workers value")
	}
	if err := run([]string{"-alg", "no-such-algorithm"}, &buf); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}
