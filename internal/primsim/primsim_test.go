package primsim

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// solo runs the call f on pid alone to completion and returns its
// response.
func solo(t *testing.T, ctl *memsim.Controller, pid memsim.PID, f memsim.Resumable) memsim.Value {
	t.Helper()
	if err := ctl.StartResumable(pid, "solo", f); err != nil {
		t.Fatal(err)
	}
	for {
		if _, done := ctl.CallEnded(pid); done {
			ret, err := ctl.FinishCall(pid)
			if err != nil {
				t.Fatal(err)
			}
			return ret
		}
		if _, err := ctl.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
}

// readFrame reads one word and returns its value.
type readFrame struct {
	a    memsim.Addr
	ret  memsim.Value
	read bool
}

func (f *readFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.read {
		f.ret = prev.Val
		return memsim.Access{}, false
	}
	f.read = true
	return memsim.AccRead(f.a), true
}

func (f *readFrame) Return() memsim.Value { return f.ret }

func (f *readFrame) CloneInto(dst memsim.Resumable) memsim.Resumable { return memsim.CopyFrame(f, dst) }

// race starts frames[pid] on every process, runs them to completion under
// a seeded random schedule, and returns the processes whose call returned
// 1.
func race(t *testing.T, ctl *memsim.Controller, frames []memsim.Resumable, seed int64) (winners []memsim.PID) {
	t.Helper()
	for pid, f := range frames {
		if err := ctl.StartResumable(memsim.PID(pid), "race", f); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var ready []memsim.PID
		for i := range frames {
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
			return winners
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
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
	frames := make([]memsim.Resumable, n)
	for i := range frames {
		var f Frame
		emu.CAS(&f, memsim.PID(i), 0, 0, memsim.Value(i)+1)
		frames[i] = &f
	}
	winners = race(t, ctl, frames, seed)
	// Fetch the final value through a solo read.
	final = solo(t, ctl, 0, &readFrame{a: emu.Addr(0)})
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
	// One frame runs every operation, restarting its lock sections in
	// place.
	var f Frame
	cas := func(j int, v memsim.Value) memsim.Value {
		arr.CAS(&f, 0, j, memsim.Nil, v)
		return solo(t, ctl, 0, &f)
	}
	if cas(0, 7) != 1 {
		t.Fatal("first CAS on slot 0 failed")
	}
	if cas(0, 8) != 0 {
		t.Fatal("second CAS on the same slot must fail")
	}
	if cas(1, 9) != 1 {
		t.Fatal("first CAS on slot 1 failed")
	}
	var got []memsim.Value
	for j := 0; j < 3; j++ {
		got = append(got, solo(t, ctl, 0, &readFrame{a: arr.Addr(j)}))
	}
	if got[0] != 7 || got[1] != 9 || got[2] != memsim.Nil {
		t.Fatalf("array contents = %v", got)
	}
}
