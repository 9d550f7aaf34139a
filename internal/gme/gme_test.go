package gme

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

func TestSessionSafety(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(RunConfig{
			N:         8,
			Sessions:  2,
			Entries:   5,
			Scheduler: sched.NewRandom(seed),
		})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.SessionSafe {
			t.Fatalf("seed %d: two sessions occupied the resource concurrently", seed)
		}
		if !res.Truncated && res.Entries != 8*5 {
			t.Fatalf("seed %d: %d entries, want 40", seed, res.Entries)
		}
	}
}

// TestConcurrencyWithinSession: GME's reason to exist — same-session
// processes overlap in the resource, which plain mutual exclusion forbids.
func TestConcurrencyWithinSession(t *testing.T) {
	best := 0
	for seed := int64(1); seed <= 20; seed++ {
		res, err := Run(RunConfig{
			N:         6,
			Sessions:  1, // everyone shares a session: maximal overlap
			Entries:   4,
			Scheduler: sched.NewRandom(seed),
		})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MaxConcurrent > best {
			best = res.MaxConcurrent
		}
	}
	if best < 2 {
		t.Fatalf("max same-session occupancy = %d, want >= 2 (no concurrency observed)", best)
	}
}

func TestTwoSessionContrast(t *testing.T) {
	res, err := Run(RunConfig{
		N:          8,
		Sessions:   2,
		Entries:    6,
		Scheduler:  sched.NewRandom(4),
		KeepEvents: true,
	})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	cc := res.PerEntry(model.ModelCC)
	dsm := res.PerEntry(model.ModelDSM)
	if math.IsNaN(cc) || math.IsNaN(dsm) || cc <= 0 || dsm <= 0 {
		t.Fatalf("per-entry costs CC=%f DSM=%f", cc, dsm)
	}
	t.Logf("two-session GME: %.2f CC vs %.2f DSM RMRs per entry", cc, dsm)
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{N: 0, Sessions: 1}); err == nil {
		t.Fatal("want error for N=0")
	}
	if _, err := Run(RunConfig{N: 2, Sessions: 0}); err == nil {
		t.Fatal("want error for Sessions=0")
	}
}

// TestStreamingMatchesBatch: streaming reports of a scoring-only GME run
// equal a batch Score over the retained trace of the identically-seeded
// legacy run, for every standard model.
func TestStreamingMatchesBatch(t *testing.T) {
	scorers := model.StandardScorers()
	stream, err := Run(RunConfig{
		N: 6, Sessions: 2, Entries: 4,
		Scheduler: sched.NewRandom(5), Scorers: scorers,
	})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if stream.Events != nil {
		t.Fatalf("scoring-only run retained %d events", len(stream.Events))
	}
	legacy, err := Run(RunConfig{
		N: 6, Sessions: 2, Entries: 4, Scheduler: sched.NewRandom(5),
		KeepEvents: true,
	})
	if err != nil && !errors.Is(err, ErrBudget) {
		t.Fatal(err)
	}
	if stream.Entries != legacy.Entries || stream.MaxConcurrent != legacy.MaxConcurrent {
		t.Fatalf("streaming (%d, %d) and legacy (%d, %d) runs diverged",
			stream.Entries, stream.MaxConcurrent, legacy.Entries, legacy.MaxConcurrent)
	}
	for i, s := range scorers {
		if got, want := stream.Reports[i], legacy.Score(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming %+v != batch %+v", s.Name(), got, want)
		}
	}
}

// TestPerEntryNaN: a run with zero completed entries prices at NaN.
func TestPerEntryNaN(t *testing.T) {
	res, err := Run(RunConfig{
		N: 4, Sessions: 2, Entries: 2, Scheduler: sched.NewRandom(1), MaxSteps: 2,
		KeepEvents: true,
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res.Entries != 0 {
		t.Fatalf("entries = %d, want 0", res.Entries)
	}
	if pe := res.PerEntry(model.ModelCC); !math.IsNaN(pe) {
		t.Fatalf("PerEntry = %v, want NaN", pe)
	}
}

// TestRoomSectionsExclude drives RoomLock's Enter and Exit sections
// directly: while p0 occupies session 0, p1's Enter for session 1 keeps
// retrying through the lock and never completes; once p0's Exit has run,
// p1 enters and the room holds session 1 with one occupant.
func TestRoomSectionsExclude(t *testing.T) {
	m := memsim.NewMachine(2)
	g, err := NewRoomLock(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctl := memsim.NewController(m)
	// drive steps the processes with a pending access round-robin until
	// target's call ends (collecting it) or limit steps have run.
	drive := func(target memsim.PID, limit int) bool {
		t.Helper()
		for steps := 0; steps < limit; {
			for pid := memsim.PID(0); pid < 2; pid++ {
				if _, done := ctl.CallEnded(target); done {
					if _, err := ctl.FinishCall(target); err != nil {
						t.Fatal(err)
					}
					return true
				}
				if _, ok := ctl.Pending(pid); ok {
					if _, err := ctl.Step(pid); err != nil {
						t.Fatal(err)
					}
					steps++
				}
			}
		}
		return false
	}
	start := func(pid memsim.PID, f memsim.Resumable) {
		t.Helper()
		if err := ctl.StartResumable(pid, "room", f); err != nil {
			t.Fatal(err)
		}
	}
	start(0, g.Enter(nil, 0, 0))
	if !drive(0, 100) {
		t.Fatal("p0 did not enter the empty room")
	}
	start(1, g.Enter(nil, 1, 1))
	if drive(1, 200) {
		t.Fatal("p1 entered session 1 while p0 occupies session 0")
	}
	start(0, g.Exit(nil, 0, 0))
	if !drive(0, 400) {
		t.Fatal("p0 did not leave")
	}
	if !drive(1, 400) {
		t.Fatal("p1 did not enter after p0 left")
	}
	if s, c := m.Load(g.session), m.Load(g.count); s != 1 || c != 1 {
		t.Fatalf("room holds session %d with %d occupants, want session 1 with 1", s, c)
	}
}
