package primsim

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// do runs one emulated operation, started in a fresh frame by begin, on
// p through the blocking adapter and returns its response.
func do(p *memsim.Proc, begin func(f *Frame)) memsim.Value {
	var f Frame
	begin(&f)
	return memsim.Blocking(&f)(p)
}

// driveCAS has n processes each attempt CAS(0 -> pid+1) on one emulated
// word under a random schedule and returns the winners.
func driveCAS(t *testing.T, n int, seed int64) (winners []memsim.PID, final memsim.Value, events []memsim.Event, owner func(memsim.Addr) memsim.PID) {
	t.Helper()
	m := memsim.NewMachine(n)
	emu, err := NewEmuCASArray(m, n, 1, "X", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctl := memsim.NewController(m)
	defer ctl.Close()
	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		if err := ctl.StartCall(pid, "cas", func(p *memsim.Proc) memsim.Value {
			return do(p, func(f *Frame) { emu.CAS(f, p.ID(), 0, 0, memsim.Value(p.ID())+1) })
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
	// Fetch the final value through a solo read program.
	if err := ctl.StartCall(0, "read", func(p *memsim.Proc) memsim.Value {
		return p.Read(emu.Addr(0))
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
	return winners, final, ctl.Events(), m.Owner
}

// TestEmuCASAtomicity: exactly one of n concurrent CAS(0 -> id) attempts
// succeeds, and the word holds the winner's value — linearizability of the
// read/write emulation under adversarial interleavings.
func TestEmuCASAtomicity(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		winners, final, _, _ := driveCAS(t, 5, seed)
		if len(winners) != 1 {
			t.Fatalf("seed %d: %d winners, want exactly 1", seed, len(winners))
		}
		if final != memsim.Value(winners[0])+1 {
			t.Fatalf("seed %d: final value %d does not match winner %d", seed, final, winners[0])
		}
	}
}

// TestEmuCASEveryOpPaysRMRs verifies the property Corollary 6.14 leans on:
// unlike hardware CAS, the emulation makes every operation traverse the
// interconnect (lock traffic), in both cost models.
func TestEmuCASEveryOpPaysRMRs(t *testing.T) {
	_, _, events, owner := driveCAS(t, 4, 2)
	dsm := model.ModelDSM.Score(events, owner, 4)
	for pid := 0; pid < 4; pid++ {
		if dsm.PerProc[pid] < 3 {
			t.Fatalf("process %d paid only %d DSM RMRs for an emulated CAS", pid, dsm.PerProc[pid])
		}
	}
}

// TestEmuCASArray exercises the array variant sequentially.
func TestEmuCASArray(t *testing.T) {
	m := memsim.NewMachine(2)
	arr, err := NewEmuCASArray(m, 2, 3, "A", memsim.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Size() != 3 {
		t.Fatalf("Size = %d", arr.Size())
	}
	ctl := memsim.NewController(m)
	defer ctl.Close()
	var got []memsim.Value
	if err := ctl.StartCall(0, "seq", func(p *memsim.Proc) memsim.Value {
		cas := func(j int, v memsim.Value) memsim.Value {
			return do(p, func(f *Frame) { arr.CAS(f, p.ID(), j, memsim.Nil, v) })
		}
		if cas(0, 7) != 1 {
			return -100
		}
		if cas(0, 8) != 0 {
			return -101 // second CAS on same slot must fail
		}
		if cas(1, 9) != 1 {
			return -102
		}
		got = append(got, p.Read(arr.Addr(0)), p.Read(arr.Addr(1)), p.Read(arr.Addr(2)))
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	for {
		if ret, done := ctl.CallEnded(0); done {
			if ret != 0 {
				t.Fatalf("sequence failed with code %d", ret)
			}
			break
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != 7 || got[1] != 9 || got[2] != memsim.Nil {
		t.Fatalf("array contents = %v", got)
	}
}
