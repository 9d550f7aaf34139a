package search_test

// The cross-subsystem acceptance chain: for every attackable algorithm,
//
//	lower-bound certificate cost  ≤  exhaustive worst case,
//	sampled maximum               ≤  exhaustive worst case,
//
// with the worst case searched over a schedule space generous enough (3
// waiters × 3 polls, depth 14, or 28 for llsc-register-rw) to contain
// adversary-style histories at the certificate's process count.

import (
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/search"
	"repro/internal/signal"
)

// adversarial is the search space the certificate comparison runs in: the
// certificate's own process count, every non-signaler polling, and a
// depth bound that dominates the certificate's short n=4 histories. The
// emulated LL/SC of llsc-register-rw spends about a dozen accesses per
// operation, so its certificate takes 28 scheduling choices and its space
// is searched that deep.
func adversarial(alg signal.Algorithm) search.Config {
	depth := 14
	if alg.Name == signal.LLSCRegisterRW().Name {
		depth = 28
	}
	return search.Config{
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			2: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: depth,
	}
}

// TestCertificateBelowWorstCase: the Section 6 adversary builds one
// specific costly history; the cost-directed search maximizes over all of
// them, so its worst case must dominate every certificate for the same
// algorithm and process count.
func TestCertificateBelowWorstCase(t *testing.T) {
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue
		}
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			cert, err := lowerbound.Run(lowerbound.Config{
				Algorithm:      alg,
				N:              4,
				C:              1,
				VerifyErasures: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := adversarial(alg)
			res, err := search.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cert.TotalRMRs > res.WorstCost {
				t.Fatalf("certificate claims %d RMRs (verdict %s) but the exhaustive worst case is %d",
					cert.TotalRMRs, cert.Verdict, res.WorstCost)
			}
			sc := cfg
			sc.Mode = search.ModeSample
			sc.Seed = 42
			sc.Walks = 64
			sam, err := search.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if sam.WorstCost > res.WorstCost {
				t.Fatalf("sampled max %d exceeds exhaustive worst case %d", sam.WorstCost, res.WorstCost)
			}
			t.Logf("certificate %d ≤ sampled max %d ≤ worst case %d (witness %v)",
				cert.TotalRMRs, sam.WorstCost, res.WorstCost, res.Schedule)
		})
	}
}
