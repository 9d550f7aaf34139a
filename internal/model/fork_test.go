package model_test

// Properties of the search-facing accumulator capabilities: Fork must
// produce an independent mid-run copy (same future costs, no sharing), and
// AppendModelState must be canonical (equal pricing states encode equally,
// different states differently, forks encode like their originals).

import (
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
)

// encodeState renders an accumulator's canonical model state, failing the
// test if the accumulator does not support encoding.
func encodeState(t *testing.T, a model.Accumulator) string {
	t.Helper()
	enc, ok := a.(model.ModelStateAppender)
	if !ok {
		t.Fatalf("%T does not implement ModelStateAppender", a)
	}
	return string(enc.AppendModelState(nil))
}

// TestForkMatchesOriginal: fork an accumulator mid-trace and feed both the
// same suffix — per-event costs, final reports and canonical state
// encodings must be identical. This is the exact property the backtracking
// search relies on when it restores a forked accumulator at a tree node.
func TestForkMatchesOriginal(t *testing.T) {
	traces := randomTraces(t)
	for _, v := range variants() {
		for _, tr := range traces[:6] {
			acc := v.Begin(tr.n, tr.owner)
			cut := len(tr.events) / 2
			for _, ev := range tr.events[:cut] {
				acc.Add(ev)
			}
			f, ok := acc.(model.ForkableAccumulator)
			if !ok {
				t.Fatalf("%s: %T does not implement ForkableAccumulator", v.Name(), acc)
			}
			fork := f.Fork()
			if got, want := encodeState(t, fork), encodeState(t, acc); got != want {
				t.Fatalf("%s/%s: fork encodes differently at the fork point:\n fork: %q\n orig: %q",
					v.Name(), tr.name, got, want)
			}
			for i, ev := range tr.events[cut:] {
				if co, cf := acc.Add(ev), fork.Add(ev); co != cf {
					t.Fatalf("%s/%s: event %d costs diverged: original %+v, fork %+v",
						v.Name(), tr.name, cut+i, co, cf)
				}
			}
			if ro, rf := acc.Report(), fork.Report(); !reflect.DeepEqual(ro, rf) {
				t.Fatalf("%s/%s: reports diverged:\n original: %+v\n fork:     %+v",
					v.Name(), tr.name, ro, rf)
			}
		}
	}
}

// TestForkIndependence: events fed to the fork must not leak into the
// original (and vice versa). Uses a contended write so the CC cache state
// would visibly change if the maps were shared.
func TestForkIndependence(t *testing.T) {
	owner := func(memsim.Addr) memsim.PID { return memsim.NoOwner }
	read := func(p memsim.PID) memsim.Event {
		return memsim.Event{Kind: memsim.EvAccess, PID: p, Acc: memsim.AccRead(0), Res: memsim.Result{OK: true}}
	}
	write := func(p memsim.PID) memsim.Event {
		return memsim.Event{Kind: memsim.EvAccess, PID: p,
			Acc: memsim.AccWrite(0, 1), Res: memsim.Result{OK: true, Wrote: true}}
	}
	for _, v := range variants() {
		acc := v.Begin(3, owner).(model.ForkableAccumulator)
		acc.Add(read(0)) // p0 caches the word
		fork := acc.Fork().(model.ForkableAccumulator)
		fork.Add(write(1)) // invalidates p0's copy — in the fork only
		before := encodeState(t, acc)
		c1 := acc.Add(read(0)) // must still be a cache hit in the original
		c2 := fork.Add(read(0))
		if _, cc := v.(model.CC); cc {
			if c1.RMR {
				t.Fatalf("%s: fork's write leaked into the original (re-read cost %+v, state %q)",
					v.Name(), c1, before)
			}
			if !c2.RMR {
				t.Fatalf("%s: fork lost its own write (re-read cost %+v)", v.Name(), c2)
			}
		}
	}
}

// TestAppendModelStateCanonical: accumulators fed identical event
// sequences encode identically; a state with an extra invalidation
// encodes differently for cache-carrying models and identically for the
// stateless DSM rule.
func TestAppendModelStateCanonical(t *testing.T) {
	traces := randomTraces(t)
	for _, v := range variants() {
		for _, tr := range traces[:4] {
			a := v.Begin(tr.n, tr.owner)
			b := v.Begin(tr.n, tr.owner)
			for _, ev := range tr.events {
				a.Add(ev)
				b.Add(ev)
			}
			if ea, eb := encodeState(t, a), encodeState(t, b); ea != eb {
				t.Fatalf("%s/%s: identical runs encode differently:\n a: %q\n b: %q",
					v.Name(), tr.name, ea, eb)
			}
		}
	}
	owner := func(memsim.Addr) memsim.PID { return memsim.NoOwner }
	for _, v := range variants() {
		a := v.Begin(2, owner)
		b := v.Begin(2, owner)
		ev := memsim.Event{Kind: memsim.EvAccess, PID: 0, Acc: memsim.AccRead(0), Res: memsim.Result{OK: true}}
		a.Add(ev)
		b.Add(ev)
		b.Add(memsim.Event{Kind: memsim.EvAccess, PID: 1,
			Acc: memsim.AccWrite(0, 1), Res: memsim.Result{OK: true, Wrote: true}})
		ea, eb := encodeState(t, a), encodeState(t, b)
		if _, cc := v.(model.CC); cc {
			if ea == eb {
				t.Fatalf("%s: cache states with and without an invalidating write encode equally (%q)",
					v.Name(), ea)
			}
		} else if ea != eb {
			t.Fatalf("%s: stateless model encodes run-dependent state: %q vs %q", v.Name(), ea, eb)
		}
	}
}

// TestForkReuseFromEmptyAllocs: a CC fork of an accumulator that has
// cached nothing, into a spare whose rows have grown, keeps the spare's
// backing arrays, so caching the same addresses again allocates nothing.
// A search that restores a node saved before the path's first caching
// write runs exactly this cycle.
func TestForkReuseFromEmptyAllocs(t *testing.T) {
	owner := func(memsim.Addr) memsim.PID { return 0 }
	empty := model.ModelCC.Begin(4, owner).(model.ReusingForker)
	spare := model.ModelCC.Begin(4, owner)
	fill := func(a model.Accumulator) {
		for addr := range memsim.Addr(64) {
			a.Add(memsim.Event{Kind: memsim.EvAccess, PID: 1, Acc: memsim.Access{Op: memsim.OpRead, Addr: addr}})
		}
	}
	fill(spare)
	if raceEnabled {
		t.Skip("the race build allocates every grown row")
	}
	allocs := testing.AllocsPerRun(100, func() {
		spare = empty.ForkReuse(spare)
		fill(spare)
	})
	if allocs != 0 {
		t.Fatalf("fork from an empty accumulator and refill: %.1f allocations, want 0", allocs)
	}
}
