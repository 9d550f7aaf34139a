package mutex

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

// passageEndSteps runs the workload to completion and returns the step
// index (1-based) at which each passage completes.
func passageEndSteps(t *testing.T, alg Algorithm, n, passages int, seed int64) []int {
	t.Helper()
	full, err := Run(RunConfig{
		Lock: alg, N: n, Passages: passages, Scheduler: sched.NewRandom(seed),
		KeepEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	steps := 0
	for _, ev := range full.Events {
		switch ev.Kind {
		case memsim.EvAccess:
			steps++
		case memsim.EvCallEnd:
			ends = append(ends, steps)
		}
	}
	if len(ends) != full.Passages {
		t.Fatalf("%d call-end events, %d passages", len(ends), full.Passages)
	}
	return ends
}

// TestTruncationHarvestsFinalPassage: a budget that expires exactly on a
// passage-completing step must still count that passage — the harvest runs
// once more after the drive loop exits, so truncated runs never
// under-count completed work (and PerPassage never over-reports).
func TestTruncationHarvestsFinalPassage(t *testing.T) {
	const (
		n        = 3
		passages = 2
		seed     = 9
	)
	ends := passageEndSteps(t, MCS(), n, passages, seed)
	for want, end := range ends {
		res, err := Run(RunConfig{
			Lock: MCS(), N: n, Passages: passages,
			Scheduler: sched.NewRandom(seed), MaxSteps: end,
		})
		if res == nil {
			t.Fatalf("budget=%d: nil result (%v)", end, err)
		}
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("budget=%d: %v", end, err)
		}
		if res.Passages != want+1 {
			t.Errorf("budget=%d: %d passages counted, want %d (completion on the final budgeted step dropped)",
				end, res.Passages, want+1)
		}
	}
}

// TestInterruptedRunHarvestsFinalPassage: same guarantee on the interrupt
// path, where the loop breaks before the top-of-loop harvest can run.
func TestInterruptedRunHarvestsFinalPassage(t *testing.T) {
	ends := passageEndSteps(t, MCS(), 3, 2, 9)
	stopAt := ends[0]
	interrupt := make(chan struct{})
	steps := 0
	res, err := Run(RunConfig{
		Lock: MCS(), N: 3, Passages: 2, Scheduler: sched.NewRandom(9),
		Scorers: []model.Scorer{model.ModelDSM},
		Sink: func(ev memsim.Event) {
			if ev.Kind == memsim.EvAccess {
				steps++
				if steps == stopAt {
					close(interrupt)
				}
			}
		},
		Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Passages != 1 {
		t.Fatalf("interrupted at step %d: %d passages, want 1", stopAt, res.Passages)
	}
}

// TestPerPassageNaNOnZeroPassages: a truncated run with no completed
// passage must report NaN, not 0 — zero would masquerade as a free lock.
func TestPerPassageNaNOnZeroPassages(t *testing.T) {
	res, err := Run(RunConfig{
		Lock: MCS(), N: 4, Passages: 4, Scheduler: sched.NewRandom(1), MaxSteps: 2,
		KeepEvents: true,
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Passages != 0 {
		t.Fatalf("passages = %d, want 0 for a 2-step budget", res.Passages)
	}
	if pp := res.PerPassage(model.ModelCC); !math.IsNaN(pp) {
		t.Fatalf("PerPassage = %v, want NaN", pp)
	}
	// Unattached, traceless model: also NaN rather than a panic or 0.
	stream, err := Run(RunConfig{
		Lock: MCS(), N: 4, Passages: 1, Scheduler: sched.NewRandom(1),
		Scorers: []model.Scorer{model.ModelDSM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pp := stream.PerPassage(model.ModelCC); !math.IsNaN(pp) {
		t.Fatalf("PerPassage of unattached model = %v, want NaN", pp)
	}
}

// TestStreamingMatchesBatch: for every lock algorithm and every standard
// model, the streaming reports of a scoring-only run equal a batch Score
// over the retained trace of the identically-seeded legacy run.
func TestStreamingMatchesBatch(t *testing.T) {
	scorers := model.StandardScorers()
	for _, alg := range All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			cfg := RunConfig{Lock: alg, N: 5, Passages: 4}
			stream := cfg
			stream.Scheduler = sched.NewRandom(3)
			stream.Scorers = scorers
			sres, err := Run(stream)
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if sres.Events != nil {
				t.Fatalf("scoring-only run retained %d events", len(sres.Events))
			}
			legacy := cfg
			legacy.Scheduler = sched.NewRandom(3)
			legacy.KeepEvents = true
			lres, err := Run(legacy)
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if lres.Events == nil {
				t.Fatal("legacy run retained no events")
			}
			if sres.Passages != lres.Passages || sres.MutualExclusion != lres.MutualExclusion {
				t.Fatalf("streaming (%d, %v) and legacy (%d, %v) runs diverged",
					sres.Passages, sres.MutualExclusion, lres.Passages, lres.MutualExclusion)
			}
			for i, s := range scorers {
				if got, want := sres.Reports[i], lres.Score(s); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: streaming %+v != batch %+v", s.Name(), got, want)
				}
			}
		})
	}
}
