package repro

import (
	"testing"
)

// TestFacadeRoundTrip exercises the public facade end to end: run a
// history, score it under both models, and confirm the headline contrast.
func TestFacadeRoundTrip(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(WithTrace(true)).Run(Config{Algorithm: alg, N: 8, MaxPolls: 32, SignalAfter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("spec violations: %v", res.Violations)
	}
	cc := res.Score(CC)
	dsm := res.Score(DSM)
	if cc.Max() > 3 {
		t.Errorf("CC worst-case = %d, want O(1)", cc.Max())
	}
	if dsm.Total <= cc.Total {
		t.Errorf("DSM total %d should exceed CC total %d", dsm.Total, cc.Total)
	}
}

// TestFacadeAdversary runs the lower bound through the facade.
func TestFacadeAdversary(t *testing.T) {
	alg, err := AlgorithmByName("fixed-waiters")
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Adversary(AdversaryConfig{Algorithm: alg, N: 16, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Exceeded() {
		t.Fatalf("certificate does not exceed: total=%d c=%d k=%d", cert.TotalRMRs, cert.C, cert.K)
	}
}

func TestFacadeInventories(t *testing.T) {
	if len(Algorithms()) < 10 {
		t.Fatalf("algorithms = %d, want the full inventory", len(Algorithms()))
	}
	if len(Locks()) < 7 {
		t.Fatalf("locks = %d, want the full inventory", len(Locks()))
	}
}
