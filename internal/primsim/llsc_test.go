package primsim

import (
	"testing"

	"repro/internal/memsim"
)

// driveLLSC has n processes each run LL; if the value is 0, SC(pid+1);
// exactly one SC may succeed per version epoch.
func driveLLSC(t *testing.T, n int, seed int64) (winners []memsim.PID, final memsim.Value) {
	t.Helper()
	m := memsim.NewMachine(n)
	w, err := NewEmuLLSC(m, n, "X", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl := memsim.NewController(m)
	frames := make([]memsim.Resumable, n)
	for i := range frames {
		frames[i] = &llscFrame{w: w, pid: memsim.PID(i)}
	}
	winners = race(t, ctl, frames, seed)
	final = solo(t, ctl, 0, &readFrame{a: w.Addr()})
	return winners, final
}

// llscFrame runs LL and, if it returned 0, SC(pid+1); it returns 1 if the
// SC succeeded.
type llscFrame struct {
	w       *EmuLLSC
	pid     memsim.PID
	f       Frame
	started bool
	sc      bool // the SC has started
}

func (f *llscFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if !f.started {
		f.started = true
		f.w.LL(&f.f, f.pid)
	}
	for {
		if acc, ok := f.f.Next(prev); ok {
			return acc, true
		}
		if f.sc || f.f.Return() != 0 {
			return memsim.Access{}, false
		}
		f.sc = true
		f.w.SC(&f.f, f.pid, memsim.Value(f.pid)+1)
		prev = memsim.Result{}
	}
}

func (f *llscFrame) Return() memsim.Value {
	if f.sc {
		return f.f.Return()
	}
	return 0
}

func (f *llscFrame) CloneInto(dst memsim.Resumable) memsim.Resumable { return memsim.CopyFrame(f, dst) }

// TestEmuLLSCAtMostOneWinner: with every process LL-ing value 0 and trying
// SC, at most one SC succeeds, and the final value matches a winner.
func TestEmuLLSCAtMostOneWinner(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		winners, final := driveLLSC(t, 5, seed)
		if len(winners) > 1 {
			t.Fatalf("seed %d: %d SC winners", seed, len(winners))
		}
		if len(winners) == 1 && final != memsim.Value(winners[0])+1 {
			t.Fatalf("seed %d: final %d does not match winner %d", seed, final, winners[0])
		}
		if len(winners) == 0 && final != 0 {
			t.Fatalf("seed %d: no winner but final %d", seed, final)
		}
	}
}

// TestEmuLLSCSequential exercises the reservation rules solo.
func TestEmuLLSCSequential(t *testing.T) {
	m := memsim.NewMachine(2)
	w, err := NewEmuLLSC(m, 2, "X", 7)
	if err != nil {
		t.Fatal(err)
	}
	ctl := memsim.NewController(m)
	var f Frame
	ll := func() memsim.Value { w.LL(&f, 0); return solo(t, ctl, 0, &f) }
	sc := func(v memsim.Value) memsim.Value { w.SC(&f, 0, v); return solo(t, ctl, 0, &f) }
	if sc(1) != 0 {
		t.Fatal("SC without LL must fail")
	}
	if ll() != 7 {
		t.Fatal("LL did not return the initial value")
	}
	if sc(8) != 1 {
		t.Fatal("LL then SC must succeed")
	}
	if sc(9) != 0 {
		t.Fatal("SC must fail once the reservation is consumed")
	}
	if ll() != 8 {
		t.Fatal("LL did not return the stored value")
	}
	if got := solo(t, ctl, 0, &readFrame{a: w.Addr()}); got != 8 {
		t.Fatalf("word holds %d, want 8", got)
	}
}
