package queue

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// runConcurrentRegistrations drives n processes registering their IDs under
// a random schedule and returns the trace plus the snapshot one extra
// process reads afterward.
func runConcurrentRegistrations(t *testing.T, n int, seed int64) ([]memsim.Value, []memsim.Event, func(memsim.Addr) memsim.PID) {
	t.Helper()
	m := memsim.NewMachine(n + 1)
	reg := NewRegistry(m, n, "R")
	ctl := memsim.NewController(m)

	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		if err := ctl.StartResumable(pid, "register", reg.RegisterResumable(nil, memsim.Value(pid))); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			pid := memsim.PID(i)
			if _, done := ctl.CallEnded(pid); done {
				if _, err := ctl.FinishCall(pid); err != nil {
					t.Fatal(err)
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

	reader := memsim.PID(n)
	snapshot := reg.SnapshotResumable(nil)
	if err := ctl.StartResumable(reader, "snapshot", snapshot); err != nil {
		t.Fatal(err)
	}
	for {
		if _, done := ctl.CallEnded(reader); done {
			if _, err := ctl.FinishCall(reader); err != nil {
				t.Fatal(err)
			}
			break
		}
		if _, err := ctl.Step(reader); err != nil {
			t.Fatal(err)
		}
	}
	return snapshot.Vals(), ctl.Events(), m.Owner
}

func TestRegistryAllRegistrantsVisible(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		snap, _, _ := runConcurrentRegistrations(t, 6, seed)
		if len(snap) != 6 {
			t.Fatalf("seed %d: snapshot has %d entries, want 6", seed, len(snap))
		}
		seen := make(map[memsim.Value]bool)
		for _, v := range snap {
			if seen[v] {
				t.Fatalf("seed %d: duplicate registrant %d", seed, v)
			}
			seen[v] = true
		}
		for i := 0; i < 6; i++ {
			if !seen[memsim.Value(i)] {
				t.Fatalf("seed %d: registrant %d missing from %v", seed, i, snap)
			}
		}
	}
}

// TestRegistryO1RMRInsertion verifies the complexity claim the signaling
// algorithm relies on: registration costs exactly two interconnect
// operations per process in both cost models.
func TestRegistryO1RMRInsertion(t *testing.T) {
	_, events, owner := runConcurrentRegistrations(t, 8, 3)
	dsm := model.ModelDSM.Score(events, owner, 9)
	for pid := 0; pid < 8; pid++ {
		if dsm.PerProc[pid] != 2 {
			t.Fatalf("registrant %d paid %d DSM RMRs, want 2", pid, dsm.PerProc[pid])
		}
	}
}

func TestRegistryCap(t *testing.T) {
	m := memsim.NewMachine(1)
	if got := NewRegistry(m, 0, "R").cap; got != 1 {
		t.Fatalf("cap = %d, want clamped 1", got)
	}
	if got := NewRegistry(m, 7, "S").cap; got != 7 {
		t.Fatalf("cap = %d, want 7", got)
	}
}

// runFrame drives f on m as process pid until it completes, starting
// from prev (the result of the access f issued last, or zero).
func runFrame(m *memsim.Machine, pid memsim.PID, f memsim.Resumable, prev memsim.Result) {
	for {
		acc, ok := f.Next(prev)
		if !ok {
			return
		}
		prev = m.Apply(pid, acc)
	}
}

// TestSnapshotCopiesOwnBuffer: a snapshot frame reuses its value buffer
// for its next snapshot, so a copy saved mid-snapshot must not share it.
// Save mid-snapshot, let the original start a new snapshot over changed
// slots, restore the saved copy into it and finish: the restored
// snapshot still holds the values collected before the save.
func TestSnapshotCopiesOwnBuffer(t *testing.T) {
	m := memsim.NewMachine(3)
	reg := NewRegistry(m, 2, "R")
	runFrame(m, 0, reg.RegisterResumable(nil, 7), memsim.Result{})
	runFrame(m, 1, reg.RegisterResumable(nil, 9), memsim.Result{})

	f := reg.SnapshotResumable(nil)
	var prev memsim.Result
	for i := 0; i < 3; i++ { // read tail, read slot 0, issue the read of slot 1
		acc, _ := f.Next(prev)
		prev = m.Apply(2, acc)
	}
	saved := f.CloneInto(nil)
	savedPrev := prev

	// The sibling: restart f in place and snapshot slot 0 = 5.
	m.Apply(0, memsim.AccWrite(reg.slot, 5))
	if got := reg.SnapshotResumable(f); got != f {
		t.Fatal("restart did not reuse the frame")
	}
	runFrame(m, 2, f, memsim.Result{})
	if got := f.Vals(); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("sibling snapshot = %v, want [5 9]", got)
	}

	// Restore the saved copy into f and finish it.
	memsim.CloneResumableInto(f, saved)
	runFrame(m, 2, f, savedPrev)
	if got := f.Vals(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("restored snapshot = %v, want [7 9]", got)
	}
}
