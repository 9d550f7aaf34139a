package jobspec_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/explore"
	"repro/internal/jobspec"
	"repro/internal/search"
)

// TestNormalizeDefaults: the zero-ish spec resolves to the CLI flag
// defaults, and normalization is idempotent.
func TestNormalizeDefaults(t *testing.T) {
	s := &jobspec.Spec{Kind: jobspec.KindWorstcase}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := jobspec.Spec{Kind: "worstcase", Alg: "flag", Waiters: 2, Polls: 2,
		Depth: 10, Model: "dsm", Mode: "exhaustive", Seed: 1, Walks: 512}
	if *s != want {
		t.Fatalf("normalized to %+v, want %+v", *s, want)
	}
	again := *s
	if err := again.Normalize(); err != nil || again != *s {
		t.Fatalf("not idempotent: %+v (%v)", again, err)
	}
}

// TestNormalizeRejects: bad kinds, algorithms, models and modes are
// invalid-input Failures (HTTP 400 material).
func TestNormalizeRejects(t *testing.T) {
	for name, s := range map[string]jobspec.Spec{
		"kind":        {Kind: "sweep"},
		"alg":         {Kind: jobspec.KindExplore, Alg: "nope"},
		"non-polling": {Kind: jobspec.KindExplore, Alg: "leader"},
		"model":       {Kind: jobspec.KindWorstcase, Model: "tso"},
		"mode":        {Kind: jobspec.KindWorstcase, Mode: "bfs"},
	} {
		s := s
		if err := s.Normalize(); !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
			t.Errorf("%s: got %v, want invalid Failure", name, err)
		}
	}
}

// TestWorkersCapped: a spec asking for more than 256 workers fails to
// compile with an invalid-input Failure, so no run is set up and no
// worker starts; 256 compiles.
func TestWorkersCapped(t *testing.T) {
	for _, kind := range []string{jobspec.KindExplore, jobspec.KindWorstcase} {
		for _, workers := range []int{257, 1_000_000_000} {
			s := jobspec.Spec{Kind: kind, Workers: workers}
			_, eerr := s.ExploreConfig()
			_, serr := s.SearchConfig()
			for _, err := range []error{eerr, serr} {
				if !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
					t.Fatalf("%s spec with %d workers: got %v, want an invalid Failure", kind, workers, err)
				}
			}
		}
		s := jobspec.Spec{Kind: kind, Workers: 256}
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s spec with 256 workers: %v", kind, err)
		}
	}
}

// TestDepthAndWalksCapped: a depth above 64, or more than 65,536 sample
// walks, fails to compile with an invalid-input Failure; the caps
// themselves compile.
func TestDepthAndWalksCapped(t *testing.T) {
	for _, kind := range []string{jobspec.KindExplore, jobspec.KindWorstcase} {
		s := jobspec.Spec{Kind: kind, Depth: 64}
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s spec at depth 64: %v", kind, err)
		}
		for _, depth := range []int{65, 1_000_000_000} {
			s := jobspec.Spec{Kind: kind, Depth: depth}
			if err := s.Normalize(); !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
				t.Fatalf("%s spec at depth %d: got %v, want an invalid Failure", kind, depth, err)
			}
		}
	}
	s := jobspec.Spec{Kind: jobspec.KindWorstcase, Mode: "sample", Walks: 1 << 16}
	if _, err := s.SearchConfig(); err != nil {
		t.Fatalf("sample spec with 65536 walks: %v", err)
	}
	for _, walks := range []int{1<<16 + 1, 1_000_000_000} {
		s := jobspec.Spec{Kind: jobspec.KindWorstcase, Mode: "sample", Walks: walks}
		if _, err := s.SearchConfig(); !errs.IsFailure(err) || errs.CodeOf(err) != errs.CodeInvalid {
			t.Fatalf("sample spec with %d walks: got %v, want an invalid Failure", walks, err)
		}
	}
}

// TestScriptsShape: the canonical workload shape every surface shares.
func TestScriptsShape(t *testing.T) {
	s := &jobspec.Spec{Kind: jobspec.KindExplore, Waiters: 3, Polls: 2}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	n, scripts := s.Scripts()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	if len(scripts) != 4 {
		t.Fatalf("scripted processes = %d, want 4", len(scripts))
	}
	if len(scripts[0]) != 2 || len(scripts[4]) != 1 {
		t.Fatalf("script lengths wrong: %v", scripts)
	}
	if _, spare := scripts[3]; spare {
		t.Fatal("spare PID has a script")
	}
}

// TestCompileAndRun: compiled configs actually run, and the docs carry
// the results with the exact field spelling the CLIs print. The pinned
// substrings are the round-trip contract with the committed goldens.
func TestCompileAndRun(t *testing.T) {
	ws := &jobspec.Spec{Kind: jobspec.KindWorstcase, Alg: "flag", Waiters: 2, Polls: 2, Depth: 8}
	scfg, err := ws.SearchConfig()
	if err != nil {
		t.Fatal(err)
	}
	sres, err := search.Run(scfg)
	if err != nil {
		t.Fatal(err)
	}
	wdoc, err := json.Marshal(jobspec.NewWorstcaseDoc(ws, sres))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"algorithm":"flag"`, `"model":"DSM"`, `"waiters":2`,
		`"polls":2`, `"depth":8`, `"mode":"exhaustive"`, `"worstCost":`, `"witness":`,
		`"schedule":`, `"witnessTruncated":`, `"paths":`, `"pruned":`, `"seed":0`} {
		if !strings.Contains(string(wdoc), field) {
			t.Errorf("worstcase doc lacks %s: %s", field, wdoc)
		}
	}
	if strings.Contains(string(wdoc), `"workers"`) {
		t.Errorf("worstcase doc leaks machine-dependent workers: %s", wdoc)
	}

	es := &jobspec.Spec{Kind: jobspec.KindExplore, Alg: "flag", Waiters: 2, Polls: 2, Depth: 8}
	ecfg, err := es.ExploreConfig()
	if err != nil {
		t.Fatal(err)
	}
	eres, err := explore.Run(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	edoc, err := json.Marshal(jobspec.NewExploreDoc(es, eres, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"algorithm":"flag"`, `"waiters":2`, `"polls":2`,
		`"depth":8`, `"paths":`, `"truncated":`, `"statesDeduped":`,
		`"maxDepthReached":`, `"engine":"backtracking+dedup"`, `"specHolds":true`} {
		if !strings.Contains(string(edoc), field) {
			t.Errorf("explore doc lacks %s: %s", field, edoc)
		}
	}
	if strings.Contains(string(edoc), `"violation"`) {
		t.Errorf("passing explore doc carries a violation field: %s", edoc)
	}
	vdoc, _ := json.Marshal(jobspec.NewExploreDoc(es, eres, "poll returned 0 after signal"))
	if !strings.Contains(string(vdoc), `"specHolds":false`) || !strings.Contains(string(vdoc), `"violation":"poll returned 0 after signal"`) {
		t.Errorf("violating explore doc wrong: %s", vdoc)
	}
}

// TestSpecRoundTrip: a spec survives JSON (the server's request body).
func TestSpecRoundTrip(t *testing.T) {
	dedup := false
	in := jobspec.Spec{Kind: "explore", Alg: "queue", Waiters: 3, Polls: 2, Depth: 12, Dedup: &dedup}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out jobspec.Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Alg != in.Alg || out.Waiters != in.Waiters ||
		out.Dedup == nil || *out.Dedup {
		t.Fatalf("round trip lost fields: %+v", out)
	}
}
