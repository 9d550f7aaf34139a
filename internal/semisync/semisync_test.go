package semisync

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// TestFischerTimedMutualExclusion: under Δ-respecting schedules Fischer's
// lock is a correct mutex, across seeds and Δ values.
func TestFischerTimedMutualExclusion(t *testing.T) {
	for _, delta := range []int{2, 4, 8} {
		for seed := int64(1); seed <= 8; seed++ {
			res, err := Run(RunConfig{
				N:        5,
				Delta:    delta,
				Passages: 5,
				Timed:    true,
				Seed:     seed,
			})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatalf("delta=%d seed=%d: %v", delta, seed, err)
			}
			if !res.MutualExclusion {
				t.Fatalf("delta=%d seed=%d: mutual exclusion violated under timed schedule", delta, seed)
			}
			if !res.Truncated && res.Passages != 25 {
				t.Fatalf("delta=%d seed=%d: %d passages, want 25", delta, seed, res.Passages)
			}
		}
	}
}

// TestFischerAsyncViolation hand-builds the classic asynchronous
// counterexample: p1 reads X = NIL and is suspended before its write; p0
// writes, delays, re-reads X = 0 and enters; then p1 wakes, writes X := 1,
// delays, re-reads X = 1 and enters too — two processes in the critical
// section, because without the Δ guarantee the delay proves nothing.
func TestFischerAsyncViolation(t *testing.T) {
	const delta = 3
	m := memsim.NewMachine(2)
	lock := NewFischer(m, 2, delta)
	inCS := m.Alloc(memsim.NoOwner, "inCS", 1, 0)

	ctl := memsim.NewController(m)
	for pid := 0; pid < 2; pid++ {
		if err := ctl.StartResumable(memsim.PID(pid), "cs", &csFrame{lock: lock, pid: memsim.PID(pid), inCS: inCS}); err != nil {
			t.Fatal(err)
		}
	}
	step := func(pid memsim.PID) {
		t.Helper()
		if _, err := ctl.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	// p1: read X=NIL (now about to write X).
	step(1)
	// p0: runs alone through its whole entry: read X, write X:=0, delay,
	// re-read X=0 -> enters CS and increments occupancy.
	occupied := false
	for i := 0; i < 3+delta+4 && !occupied; i++ {
		step(0)
		if m.Load(inCS) == 1 {
			occupied = true
		}
	}
	if !occupied {
		t.Fatal("p0 failed to enter the critical section solo")
	}
	// p1 wakes: write X:=1, delay, re-read X=1 -> enters as well.
	for i := 0; i < 3+delta+4; i++ {
		if _, ok := ctl.Pending(1); !ok {
			break
		}
		step(1)
		if m.Load(inCS) == 2 {
			// Both processes are in the critical section.
			return
		}
	}
	t.Fatal("expected an asynchronous mutual-exclusion violation, none occurred")
}

// csFrame acquires the lock, occupies the critical section (increment
// inCS, re-read it, decrement it) and releases; it returns the occupancy
// it saw.
type csFrame struct {
	lock *Fischer
	pid  memsim.PID
	inCS memsim.Addr
	sec  memsim.Resumable
	occ  memsim.Value
	pc   uint8
}

func (f *csFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.sec, prev, f.pc = f.lock.AcquireFrame(f.pid), memsim.Result{}, 1
		case 1:
			if acc, ok := f.sec.Next(prev); ok {
				return acc, true
			}
			f.pc = 2
			return memsim.AccRead(f.inCS), true
		case 2:
			f.pc = 3
			return memsim.AccWrite(f.inCS, prev.Val+1), true
		case 3: // stay in the CS: read the occupancy once more
			f.pc = 4
			return memsim.AccRead(f.inCS), true
		case 4:
			f.occ, f.pc = prev.Val, 5
			return memsim.AccRead(f.inCS), true
		case 5:
			f.pc = 6
			return memsim.AccWrite(f.inCS, prev.Val-1), true
		case 6:
			f.sec, prev, f.pc = f.lock.ReleaseFrame(f.pid), memsim.Result{}, 7
		default:
			return f.sec.Next(prev)
		}
	}
}

func (f *csFrame) Return() memsim.Value { return f.occ }

func (f *csFrame) CloneInto(dst memsim.Resumable) memsim.Resumable { return memsim.CopyFrame(f, dst) }

// TestFischerO1Writes: the lock issues a constant number of writes per
// uncontended acquisition (the property the semi-synchronous literature
// optimizes), and the delay itself is RMR-free in the DSM model.
func TestFischerO1Writes(t *testing.T) {
	res, err := Run(RunConfig{N: 1, Delta: 6, Passages: 4, Timed: true, Seed: 1, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dsm := res.Score(model.ModelDSM)
	perPassage := float64(dsm.Total) / float64(res.Passages)
	// Solo passage: read X, write X, re-read X, CS accesses, release = a
	// small constant; crucially independent of Delta's delay length.
	if perPassage > 10 {
		t.Fatalf("DSM RMRs per solo passage = %.1f, want small constant", perPassage)
	}
	resBig, err := Run(RunConfig{N: 1, Delta: 60, Passages: 4, Timed: true, Seed: 1, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := resBig.Score(model.ModelDSM).Total; got != dsm.Total {
		t.Fatalf("DSM RMRs changed with Delta (%d vs %d): delay is not RMR-free", got, dsm.Total)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{N: 0}); err == nil {
		t.Fatal("want error for N=0")
	}
}

// TestStreamingMatchesBatch: streaming reports of a scoring-only timed run
// equal a batch Score over the retained trace of the identically-seeded
// legacy run, for every standard model — the Δ-deadline stepper included.
func TestStreamingMatchesBatch(t *testing.T) {
	scorers := model.StandardScorers()
	for _, timed := range []bool{true, false} {
		cfg := RunConfig{N: 5, Delta: 4, Passages: 4, Timed: timed, Seed: 6}
		stream := cfg
		stream.Scorers = scorers
		sres, serr := Run(stream)
		cfg.KeepEvents = true
		lres, lerr := Run(cfg)
		if serr != nil && !errors.Is(serr, ErrBudget) {
			t.Fatal(serr)
		}
		if lerr != nil && !errors.Is(lerr, ErrBudget) {
			t.Fatal(lerr)
		}
		if sres.Events != nil {
			t.Fatalf("timed=%v: scoring-only run retained %d events", timed, len(sres.Events))
		}
		if sres.Passages != lres.Passages || sres.MutualExclusion != lres.MutualExclusion {
			t.Fatalf("timed=%v: streaming (%d, %v) and legacy (%d, %v) runs diverged",
				timed, sres.Passages, sres.MutualExclusion, lres.Passages, lres.MutualExclusion)
		}
		for i, s := range scorers {
			if got, want := sres.Reports[i], lres.Score(s); !reflect.DeepEqual(got, want) {
				t.Errorf("timed=%v %s: streaming %+v != batch %+v", timed, s.Name(), got, want)
			}
		}
	}
}
