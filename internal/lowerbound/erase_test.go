package lowerbound

import (
	"slices"
	"testing"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// TestEraseAllocs: once the builder's execution and its survivor-check
// buffer have held the history, an erasure (rewind, replay without the
// victim, survivor check) allocates nothing.
func TestEraseAllocs(t *testing.T) {
	const n = 64
	b, err := newBuilder(Config{
		Algorithm:      signal.FixedWaiters(),
		N:              n,
		C:              2,
		SoloBudget:     64*n + 256,
		VerifyErasures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range b.activeSorted() {
		status, err := b.advance(p)
		if err != nil {
			t.Fatal(err)
		}
		if status != advStable {
			t.Fatalf("p%d: advance status %d, want stable", p, status)
		}
	}
	actives := len(b.active)
	victim := memsim.PID(0)
	eraseNext := func() {
		if err := b.erase(victim); err != nil {
			t.Fatal(err)
		}
		victim++
	}
	// AllocsPerRun erases once to warm up (sizing the buffers), then
	// reports the mean over the measured erasures, rounded down: an
	// allocation in every erasure reads as at least 1, while a stray
	// runtime allocation inside the window (a new OS thread when the
	// world restarts after ReadMemStats, on a loaded machine) reads as 0.
	if allocs := testing.AllocsPerRun(40, eraseNext); allocs != 0 {
		t.Fatalf("a warm erasure allocated %v times, want 0", allocs)
	}
	if want := actives - int(victim); len(b.active) != want {
		t.Fatalf("%d actives after %d erasures, want %d", len(b.active), victim, want)
	}
}

// TestSurvivorChanged: the VerifyErasures comparison pairs the replay's
// events with the survivors' old events in order, ignores shifted
// sequence numbers, and flags any survivor access whose operation or
// result changed, as well as missing or extra events.
func TestSurvivorChanged(t *testing.T) {
	acc := func(seq int, p memsim.PID, val memsim.Value) memsim.Event {
		return memsim.Event{Seq: seq, Kind: memsim.EvAccess, PID: p,
			Acc: memsim.AccRead(7), Res: memsim.Result{Val: val, OK: true}}
	}
	b := &builder{erasing: []bool{true, false, false}}
	before := []memsim.Event{acc(0, 1, 0), acc(1, 0, 0), acc(2, 2, 1), acc(3, 1, 1)}
	cases := []struct {
		name  string
		after []memsim.Event
		want  memsim.PID
		ok    bool
	}{
		{"unchanged", []memsim.Event{acc(0, 1, 0), acc(1, 2, 1), acc(2, 1, 1)}, 0, false},
		{"result changed", []memsim.Event{acc(0, 1, 0), acc(1, 2, 0), acc(2, 1, 1)}, 2, true},
		{"reordered", []memsim.Event{acc(0, 1, 0), acc(1, 1, 1), acc(2, 2, 1)}, 2, true},
		{"missing", []memsim.Event{acc(0, 1, 0), acc(1, 2, 1)}, 1, true},
		{"extra", []memsim.Event{acc(0, 1, 0), acc(1, 2, 1), acc(2, 1, 1), acc(3, 2, 0)}, 2, true},
	}
	for _, c := range cases {
		p, changed := b.survivorChanged(before, c.after)
		if changed != c.ok || (changed && p != c.want) {
			t.Errorf("%s: survivorChanged = p%d, %v; want p%d, %v", c.name, p, changed, c.want, c.ok)
		}
	}
}

// TestActiveListAscending: erasures remove their victims from the active
// list in place and keep it in ascending PID order, in step with the
// isActive flags, whatever order the victims come in.
func TestActiveListAscending(t *testing.T) {
	const n = 16
	b, err := newBuilder(Config{Algorithm: signal.FixedWaiters(), N: n, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.release()
	for _, p := range b.activeSorted() {
		if _, err := b.advance(p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(erased map[memsim.PID]bool) {
		t.Helper()
		var want []memsim.PID
		for p := memsim.PID(0); p < n; p++ {
			if !erased[p] {
				want = append(want, p)
			}
			if b.isActive[p] == erased[p] {
				t.Fatalf("isActive[%d] = %v after erasing %v", p, b.isActive[p], erased)
			}
		}
		if !slices.Equal(b.activeSorted(), want) {
			t.Fatalf("active list %v, want %v", b.activeSorted(), want)
		}
	}
	erased := map[memsim.PID]bool{}
	for _, victims := range [][]memsim.PID{{0}, {9, 4}, {15, 1, 7}} {
		if err := b.erase(victims...); err != nil {
			t.Fatal(err)
		}
		for _, v := range victims {
			erased[v] = true
		}
		check(erased)
	}
	// Victims may alias the active list itself.
	if err := b.erase(b.activeSorted()[2:5]...); err != nil {
		t.Fatal(err)
	}
	for _, v := range []memsim.PID{5, 6, 8} {
		erased[v] = true
	}
	check(erased)
}
