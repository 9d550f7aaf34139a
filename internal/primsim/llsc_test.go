package primsim

import (
	"math/rand"
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
	defer ctl.Close()
	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		if err := ctl.StartCall(pid, "llsc", func(p *memsim.Proc) memsim.Value {
			if do(p, func(f *Frame) { w.LL(f, p.ID()) }) != 0 {
				return 0
			}
			return do(p, func(f *Frame) { w.SC(f, p.ID(), memsim.Value(p.ID())+1) })
		}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			pid := memsim.PID(i)
			if ret, done := ctl.CallEnded(pid); done {
				if _, err := ctl.FinishCall(pid); err != nil {
					t.Fatal(err)
				}
				if ret == 1 {
					winners = append(winners, pid)
				}
			}
			if _, ok := ctl.Pending(pid); ok {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			break
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.StartCall(0, "read", func(p *memsim.Proc) memsim.Value {
		return p.Read(w.Addr())
	}); err != nil {
		t.Fatal(err)
	}
	for {
		if ret, done := ctl.CallEnded(0); done {
			if _, err := ctl.FinishCall(0); err != nil {
				t.Fatal(err)
			}
			final = ret
			break
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	return winners, final
}

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
	defer ctl.Close()
	if err := ctl.StartCall(0, "seq", func(p *memsim.Proc) memsim.Value {
		ll := func() memsim.Value { return do(p, func(f *Frame) { w.LL(f, 0) }) }
		sc := func(v memsim.Value) memsim.Value { return do(p, func(f *Frame) { w.SC(f, 0, v) }) }
		if sc(1) != 0 {
			return -1 // SC without LL must fail
		}
		if ll() != 7 {
			return -2
		}
		if sc(8) != 1 {
			return -3 // LL then SC must succeed
		}
		if sc(9) != 0 {
			return -4 // reservation consumed
		}
		if ll() != 8 {
			return -5
		}
		return p.Read(w.Addr())
	}); err != nil {
		t.Fatal(err)
	}
	for {
		if ret, done := ctl.CallEnded(0); done {
			if ret != 8 {
				t.Fatalf("sequence failed with code %d", ret)
			}
			break
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
	}
}
