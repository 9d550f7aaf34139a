package harness

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

// countWorkload is a minimal workload: each of n processes performs per
// calls, each a single FetchAdd on a shared counter (so every applied step
// completes exactly one call).
type countWorkload struct {
	n, per    int
	remaining []int
	counter   memsim.Addr
	done      int
	sum       memsim.Value

	verifyCalled    bool
	verifyTruncated bool
}

func newCountWorkload(n, per int) *countWorkload {
	w := &countWorkload{n: n, per: per, remaining: make([]int, n)}
	for i := range w.remaining {
		w.remaining[i] = per
	}
	return w
}

func (w *countWorkload) N() int { return w.n }

func (w *countWorkload) Deploy(m *memsim.Machine) error {
	w.counter = m.Alloc(memsim.NoOwner, "counter", 1, 0)
	return nil
}

func (w *countWorkload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	if w.remaining[pid] == 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	return "inc", &incFrame{counter: w.counter}, true
}

// incFrame is one FetchAdd on the counter, returning the old value.
type incFrame struct {
	counter memsim.Addr
	ret     memsim.Value
	done    bool
}

func (f *incFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.done {
		f.ret = prev.Val
		return memsim.Access{}, false
	}
	f.done = true
	return memsim.AccFetchAdd(f.counter, 1), true
}

func (f *incFrame) Return() memsim.Value { return f.ret }

func (f *incFrame) CloneInto(dst memsim.Resumable) memsim.Resumable { return memsim.CopyFrame(f, dst) }

func (w *countWorkload) Done(pid memsim.PID, ret memsim.Value) {
	w.done++
	w.sum += ret
}

func (w *countWorkload) Verify(m *memsim.Machine, truncated bool) {
	w.verifyCalled = true
	w.verifyTruncated = truncated
}

// pingWorkload generates cross-module traffic (reads and writes on another
// process's word) so all four cost models produce nontrivial bills.
type pingWorkload struct {
	n, per    int
	remaining []int
	cells     []memsim.Addr
}

func newPingWorkload(n, per int) *pingWorkload {
	w := &pingWorkload{n: n, per: per, remaining: make([]int, n)}
	for i := range w.remaining {
		w.remaining[i] = per
	}
	return w
}

func (w *pingWorkload) N() int { return w.n }

func (w *pingWorkload) Deploy(m *memsim.Machine) error {
	w.cells = make([]memsim.Addr, w.n)
	for i := range w.cells {
		w.cells[i] = m.Alloc(memsim.PID(i), "cell", 1, 0)
	}
	return nil
}

func (w *pingWorkload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	if w.remaining[pid] == 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	return "ping", &pingFrame{peer: w.cells[(int(pid)+1)%w.n], own: w.cells[pid]}, true
}

// pingFrame reads the peer's cell, increments it, and copies the value
// read into its own cell, returning it.
type pingFrame struct {
	peer, own memsim.Addr
	v         memsim.Value
	pc        uint8
}

func (f *pingFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.peer), true
	case 1:
		f.v, f.pc = prev.Val, 2
		return memsim.AccWrite(f.peer, f.v+1), true
	case 2:
		f.pc = 3
		return memsim.AccWrite(f.own, f.v), true
	default:
		return memsim.Access{}, false
	}
}

func (f *pingFrame) Return() memsim.Value { return f.v }

func (f *pingFrame) CloneInto(dst memsim.Resumable) memsim.Resumable { return memsim.CopyFrame(f, dst) }

func (w *pingWorkload) Done(memsim.PID, memsim.Value) {}

func TestRunCompletes(t *testing.T) {
	w := newCountWorkload(3, 4)
	res, err := Run(Config{Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 12 || w.done != 12 {
		t.Fatalf("Calls = %d, workload done = %d, want 12", res.Calls, w.done)
	}
	if res.Steps != 12 {
		t.Fatalf("Steps = %d, want 12 (one access per call)", res.Steps)
	}
	// FetchAdd returns the old value: the 12 returns are 0..11 in some order.
	if w.sum != 66 {
		t.Fatalf("sum of returns = %d, want 66", w.sum)
	}
	if !w.verifyCalled || w.verifyTruncated {
		t.Fatalf("Verify(called=%v, truncated=%v), want called, not truncated",
			w.verifyCalled, w.verifyTruncated)
	}
	if res.Events != nil {
		t.Fatalf("retained %d events without KeepEvents", len(res.Events))
	}
}

// TestBudgetCountsFinalStep: a call completing on the last budgeted step is
// harvested — Calls equals the budget exactly (every step completes one
// call), never one less.
func TestBudgetCountsFinalStep(t *testing.T) {
	for budget := 1; budget <= 11; budget++ {
		w := newCountWorkload(3, 4)
		res, err := Run(Config{Workload: w, MaxSteps: budget})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("budget=%d: err = %v, want ErrBudget", budget, err)
		}
		if !res.Truncated {
			t.Fatalf("budget=%d: not marked truncated", budget)
		}
		if res.Calls != budget {
			t.Fatalf("budget=%d: Calls = %d, want %d (final-step completion must be harvested)",
				budget, res.Calls, budget)
		}
		if !w.verifyTruncated {
			t.Fatalf("budget=%d: Verify saw truncated=false", budget)
		}
	}
}

// TestInterruptHarvestsFinalStep: the interrupt check runs before the
// top-of-loop harvest, so completions from the last applied step are only
// counted thanks to the post-loop harvest.
func TestInterruptHarvestsFinalStep(t *testing.T) {
	const stopAfter = 5
	w := newCountWorkload(3, 4)
	interrupt := make(chan struct{})
	accesses := 0
	res, err := Run(Config{
		Workload: w,
		Sink: func(ev memsim.Event) {
			if ev.Kind != memsim.EvAccess {
				return
			}
			accesses++
			if accesses == stopAfter {
				close(interrupt)
			}
		},
		Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !res.Interrupted {
		t.Fatal("not marked interrupted")
	}
	if res.Steps != stopAfter {
		t.Fatalf("Steps = %d, want %d", res.Steps, stopAfter)
	}
	if res.Calls != stopAfter {
		t.Fatalf("Calls = %d, want %d: the call completing on the final step before the interrupt was dropped",
			res.Calls, stopAfter)
	}
}

func TestPreFiredInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	close(interrupt)
	w := newCountWorkload(2, 2)
	res, err := Run(Config{Workload: w, Interrupt: interrupt})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Steps != 0 || res.Calls != 0 {
		t.Fatalf("pre-fired interrupt still ran: steps=%d calls=%d", res.Steps, res.Calls)
	}
}

// TestScorerMatchesBatch: streaming reports equal a batch Score of the
// retained trace of the very same run, for all four standard models.
func TestScorerMatchesBatch(t *testing.T) {
	scorers := model.StandardScorers()
	cfg := Config{
		Workload:   newPingWorkload(4, 6),
		Scheduler:  sched.NewRandom(11),
		Scorers:    scorers,
		KeepEvents: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("KeepEvents retained nothing")
	}
	for i, s := range scorers {
		batch := s.Score(res.Events, res.OwnerFunc(), res.N())
		if !reflect.DeepEqual(res.Reports[i], batch) {
			t.Errorf("%s: streaming %+v != batch %+v", s.Name(), res.Reports[i], batch)
		}
	}
}

// TestScoreFallback: without a retained trace, Score answers only for the
// exact attached model.
func TestScoreFallback(t *testing.T) {
	res, err := Run(Config{
		Workload: newPingWorkload(3, 3),
		Scorers:  []model.Scorer{model.ModelDSM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Score(model.ModelDSM); rep == nil || rep.Total == 0 {
		t.Fatalf("attached-model fallback = %+v", rep)
	}
	if rep := res.Score(model.ModelCC); rep != nil {
		t.Fatalf("unattached model answered %+v with no trace", rep)
	}
	if rep := res.Report(model.ModelDSM.Name()); rep == nil {
		t.Fatal("Report by name found nothing")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("want error for nil workload")
	}
	if _, err := Run(Config{Workload: newCountWorkload(0, 1)}); err == nil {
		t.Fatal("want error for zero processes")
	}
}
