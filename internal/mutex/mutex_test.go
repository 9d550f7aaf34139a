package mutex

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
)

func TestAllLocksMutualExclusion(t *testing.T) {
	for _, alg := range All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				res, err := Run(RunConfig{
					Lock:      alg,
					N:         5,
					Passages:  6,
					Scheduler: sched.NewRandom(seed),
				})
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.MutualExclusion {
					t.Fatalf("seed %d: mutual exclusion violated", seed)
				}
				if !res.Truncated && res.Passages != 5*6 {
					t.Fatalf("seed %d: %d passages completed, want 30", seed, res.Passages)
				}
			}
		})
	}
}

func TestMCSLocalSpinBothModels(t *testing.T) {
	res, err := Run(RunConfig{Lock: MCS(), N: 8, Passages: 10, Scheduler: sched.NewRandom(7), KeepEvents: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perPassCC := res.PerPassage(model.ModelCC)
	perPassDSM := res.PerPassage(model.ModelDSM)
	if math.IsNaN(perPassCC) || math.IsNaN(perPassDSM) {
		t.Fatalf("MCS RMRs/passage unpriced: CC %v, DSM %v", perPassCC, perPassDSM)
	}
	// MCS performs a constant number of RMRs per passage in both models.
	if perPassCC > 10 {
		t.Errorf("MCS CC RMRs/passage = %.1f, want O(1)", perPassCC)
	}
	if perPassDSM > 10 {
		t.Errorf("MCS DSM RMRs/passage = %.1f, want O(1)", perPassDSM)
	}
}

func TestTASUnboundedVsMCS(t *testing.T) {
	tas, err := Run(RunConfig{Lock: TAS(), N: 8, Passages: 10, Scheduler: sched.NewRandom(3), KeepEvents: true})
	if err != nil {
		t.Fatalf("TAS run: %v", err)
	}
	mcs, err := Run(RunConfig{Lock: MCS(), N: 8, Passages: 10, Scheduler: sched.NewRandom(3), KeepEvents: true})
	if err != nil {
		t.Fatalf("MCS run: %v", err)
	}
	tasDSM, mcsDSM := tas.PerPassage(model.ModelDSM), mcs.PerPassage(model.ModelDSM)
	if math.IsNaN(tasDSM) || math.IsNaN(mcsDSM) {
		t.Fatalf("DSM RMRs/passage unpriced: TAS %v, MCS %v", tasDSM, mcsDSM)
	}
	if tasDSM <= mcsDSM {
		t.Errorf("TAS should spend more DSM RMRs/passage (%.1f) than MCS (%.1f)", tasDSM, mcsDSM)
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mcs"); err != nil {
		t.Fatalf("ByName(mcs): %v", err)
	}
	if _, err := ByName("no-such-lock"); err == nil {
		t.Fatal("ByName should fail for unknown lock")
	}
}
