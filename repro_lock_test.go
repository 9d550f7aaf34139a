package repro

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/mutex"
	"repro/internal/sched"
)

// TestRunLockStreamingMatchesRetainedTrace: the facade's single-pass lock
// reports must equal what a run that retains its trace computes after the
// fact, for every lock and every standard model.
func TestRunLockStreamingMatchesRetainedTrace(t *testing.T) {
	r := NewRunner(WithModels(StandardModels()...))
	for _, alg := range Locks() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			res, err := r.RunLock(LockConfig{
				Lock: alg, N: 5, Passages: 4, Scheduler: sched.NewRandom(2),
			})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if res.Events != nil {
				t.Fatalf("runner retained %d events without WithTrace", len(res.Events))
			}
			if len(res.Reports) != 4 {
				t.Fatalf("got %d reports, want 4", len(res.Reports))
			}
			retained, err := mutex.Run(mutex.RunConfig{
				Lock: alg, N: 5, Passages: 4, Scheduler: sched.NewRandom(2),
				KeepEvents: true,
			})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			if retained.Events == nil {
				t.Fatal("the KeepEvents mutex.Run retained no events")
			}
			if res.Passages != retained.Passages || res.MutualExclusion != retained.MutualExclusion {
				t.Fatalf("streaming (%d, %v) and trace-retaining (%d, %v) runs diverged",
					res.Passages, res.MutualExclusion, retained.Passages, retained.MutualExclusion)
			}
			for i, m := range StandardModels() {
				if got, want := res.Reports[i], retained.Score(m); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: streaming %+v != batch score of the retained trace %+v", m.Name(), got, want)
				}
			}
		})
	}
}

// TestRunLockWithTrace: WithTrace restores full retention through the lock
// facade, enabling post-hoc scoring of unattached models.
func TestRunLockWithTrace(t *testing.T) {
	r := NewRunner(WithTrace(true), WithModels(CC))
	res, err := r.RunLock(LockConfig{
		Lock: mutex.MCS(), N: 4, Passages: 2, Scheduler: sched.NewRandom(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("WithTrace(true) retained no events")
	}
	if pp := res.PerPassage(DSM); math.IsNaN(pp) || pp <= 0 {
		t.Fatalf("post-hoc DSM PerPassage = %v", pp)
	}
}

// TestSweepLocksDeterministicAcrossWorkers: the same grid must produce
// identical per-cell reports and verdicts whatever the worker count.
func TestSweepLocksDeterministicAcrossWorkers(t *testing.T) {
	grid := LockSweep{
		Locks:    []LockAlgorithm{mutex.MCS(), mutex.TAS(), mutex.Ticket()},
		Ns:       []int{2, 5},
		Passages: 3,
		Schedulers: []func() Scheduler{
			func() Scheduler { return sched.NewRandom(1) },
			func() Scheduler { return sched.NewRandom(7) },
		},
	}
	runGrid := func(workers int) []LockCell {
		r := NewRunner(WithModels(CC, DSM), WithWorkers(workers))
		cells, err := r.SweepLocks(context.Background(), grid)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cells
	}
	base := runGrid(1)
	if len(base) != 3*2*2 {
		t.Fatalf("grid size = %d, want 12", len(base))
	}
	for _, workers := range []int{2, 4, 8} {
		got := runGrid(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(base))
		}
		for i := range base {
			b, g := base[i], got[i]
			if b.Lock != g.Lock || b.N != g.N || b.Sched != g.Sched {
				t.Fatalf("workers=%d cell %d: grid order diverged (%+v vs %+v)", workers, i, b, g)
			}
			if b.Result == nil || g.Result == nil {
				t.Fatalf("workers=%d cell %d: nil result", workers, i)
			}
			if !reflect.DeepEqual(g.Result.Reports, b.Result.Reports) {
				t.Errorf("workers=%d cell %s/N=%d/s=%d: reports differ\n got %+v\nwant %+v",
					workers, b.Lock, b.N, b.Sched, g.Result.Reports, b.Result.Reports)
			}
			if g.Result.Passages != b.Result.Passages ||
				g.Result.MutualExclusion != b.Result.MutualExclusion {
				t.Errorf("workers=%d cell %s/N=%d/s=%d: verdicts differ", workers, b.Lock, b.N, b.Sched)
			}
		}
	}
}

// TestSweepLocksDefaults: a zero sweep covers every lock in the repository
// over the default grid, streaming-only.
func TestSweepLocksDefaults(t *testing.T) {
	r := NewRunner(WithModels(DSM), WithWorkers(4))
	cells, err := r.SweepLocks(context.Background(), LockSweep{
		Ns: []int{2, 3}, Passages: 2, MaxSteps: 500_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Locks()) * 2; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Result == nil {
			t.Fatalf("cell %s/N=%d missing result", c.Lock, c.N)
		}
		if c.Result.Events != nil {
			t.Fatalf("cell %s/N=%d retained events in a scoring-only sweep", c.Lock, c.N)
		}
		if !c.Result.MutualExclusion {
			t.Fatalf("cell %s/N=%d violated mutual exclusion", c.Lock, c.N)
		}
		if !c.Result.Truncated && math.IsNaN(c.Result.PerPassage(DSM)) {
			t.Fatalf("cell %s/N=%d: complete run priced NaN", c.Lock, c.N)
		}
	}
}

// TestSweepLocksCancellation: cancelling mid-sweep returns promptly with
// the completed cells and ctx.Err().
func TestSweepLocksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	r := NewRunner(WithModels(DSM), WithWorkers(2))
	// A big contended grid: long enough that cancellation lands mid-sweep.
	cells, err := r.SweepLocks(ctx, LockSweep{
		Ns:       []int{24, 32},
		Passages: 64,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells returned")
	}
	var completed, missing int
	for _, c := range cells {
		if c.Result != nil {
			completed++
		} else {
			missing++
		}
	}
	if missing == 0 {
		t.Skip("sweep finished before cancellation on this machine")
	}
	t.Logf("cancelled: %d completed, %d unfinished of %d", completed, missing, len(cells))
}

// TestRunLockZeroPolicyTraceFree: a runner with no models and no trace
// policy runs locks trace-free and unpriced, exactly like the signaling
// path.
func TestRunLockZeroPolicyTraceFree(t *testing.T) {
	r := NewRunner()
	res, err := r.RunLock(LockConfig{
		Lock: mutex.MCS(), N: 3, Passages: 2, Scheduler: sched.NewRandom(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Fatalf("zero-policy RunLock retained %d events", len(res.Events))
	}
	if len(res.Reports) != 0 {
		t.Fatalf("zero-policy RunLock produced %d reports", len(res.Reports))
	}
	if res.Passages != 3*2 || !res.MutualExclusion {
		t.Fatalf("run did not complete: %+v", res)
	}
	if pp := res.PerPassage(CC); !math.IsNaN(pp) {
		t.Fatalf("unpriced run PerPassage = %v, want NaN", pp)
	}
}
