package explore

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/signal"
)

// Differential state-key tests: the binary StateKey and stateKeyLegacy
// must induce the same partition over engine states, for every listed
// algorithm — equal legacy keys if and only if equal binary keys, across
// every node of a bounded exploration tree. This is the property the
// dedup table's claim-once determinism rests on.

// partitionConfig builds the per-algorithm workload the partition walk
// quantifies over: two pollers (waiters for an algorithm without Poll), one
// signaler, bounded depth.
func partitionConfig(alg signal.Algorithm) Config {
	scripts := map[memsim.PID][]memsim.CallKind{
		0: {memsim.CallPoll, memsim.CallPoll},
		1: {memsim.CallPoll},
		3: {memsim.CallSignal},
	}
	if !alg.Variant.Polling {
		scripts[0], scripts[1] = []memsim.CallKind{memsim.CallWait}, []memsim.CallKind{memsim.CallWait}
	}
	return Config{Factory: alg.New, N: 4, Scripts: scripts, MaxDepth: 7}
}

// stateKeyLegacy is the original fmt-rendered state key, rebuilt from the
// monitor's state. It is the oracle of the encoder-equivalence tests: the
// binary StateKey must merge exactly the states this key merges, for every
// algorithm. It re-derives the key's framing on its own (memory words, LL
// reservations, monitor bits, phases, pending accesses, frame type names);
// only the frame content comes from memsim.AppendFrameState.
func stateKeyLegacy(e *monitor) [16]byte {
	h := fnv.New128a()
	mach := e.Machine()
	for a := 0; a < mach.Size(); a++ {
		fmt.Fprintf(h, "w%d;", mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < e.N(); pid++ {
		if addr, ok := mach.LLState(memsim.PID(pid)); ok {
			fmt.Fprintf(h, "ll%d=%d;", pid, addr)
		}
	}
	fmt.Fprintf(h, "sig%v,%v;", e.sigStarted, e.sigEnded)
	if e.Faults().Enabled() {
		fmt.Fprintf(h, "faults%d;", e.FaultsUsed())
	}
	for pid := 0; pid < e.N(); pid++ {
		p := memsim.PID(pid)
		if e.Script(p) == nil {
			continue
		}
		fmt.Fprintf(h, "p%d:%d,%d,%d,%v;", pid, e.Phase(p), e.procs[p].calls, e.Progress(p),
			e.Phase(p) != engine.Idle && e.procs[p].afterSigEnd)
		if e.Phase(p) == engine.Pending {
			acc := e.Pending(p)
			fmt.Fprintf(h, "a%d,%d,%d,%d;", acc.Op, acc.Addr, acc.Arg1, acc.Arg2)
		}
		if f := e.Frame(p); f != nil {
			fmt.Fprintf(h, "f%x;", memsim.AppendFrameState(nil, f))
		}
	}
	var key [16]byte
	copy(key[:], h.Sum(nil))
	return key
}

// keyWalk explores the schedule tree to maxDepth and checks at every node
// that the legacy-key → binary-key relation stays a bijection. The binary
// side uses the raw encoded key bytes (KeyBytes after StateKey), not just
// the 128-bit hash, so an encoding that accidentally merged states would
// be caught even if the hashes happened to collide the same way.
func keyWalk(t *testing.T, e *monitor, maxDepth int) int {
	t.Helper()
	legacyToBin := map[[16]byte]string{}
	binToLegacy := map[string][16]byte{}
	nodes := 0
	var walk func(depth int)
	walk = func(depth int) {
		choices := e.SettleAt(depth)
		legacy := stateKeyLegacy(e)
		e.StateKey()
		bin := string(e.KeyBytes())
		nodes++
		if prev, ok := legacyToBin[legacy]; ok {
			if prev != bin {
				t.Fatalf("legacy key maps to two binary keys at depth %d", depth)
			}
		} else {
			legacyToBin[legacy] = bin
		}
		if prev, ok := binToLegacy[bin]; ok {
			if prev != legacy {
				t.Fatalf("binary key maps to two legacy keys at depth %d", depth)
			}
		} else {
			binToLegacy[bin] = legacy
		}
		if len(choices) == 0 || depth >= maxDepth {
			return
		}
		m := e.Save()
		for i, c := range choices {
			if err := e.Apply(c, i); err != nil {
				t.Fatalf("apply: %v", err)
			}
			walk(depth + 1)
			e.Restore(m)
		}
		e.Release(m)
	}
	walk(0)
	if len(legacyToBin) < 2 {
		t.Fatalf("partition walk is vacuous: %d distinct states", len(legacyToBin))
	}
	return nodes
}

// TestStateKeyPartitionMatchesLegacy: for every algorithm the explorer
// lists, the binary and legacy state keys partition the reachable engine
// states identically.
func TestStateKeyPartitionMatchesLegacy(t *testing.T) {
	for _, alg := range signal.All() {
		t.Run(alg.Name, func(t *testing.T) {
			cfg := partitionConfig(alg)
			e, err := newMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := keyWalk(t, e, cfg.MaxDepth)
			t.Logf("%d nodes walked", nodes)
		})
	}
}

// TestStateKeyZeroAllocs pins the hot path's allocation discipline: one
// encode+hash of a steady-state node allocates nothing, and one
// snapshot/restore cycle on a pooled node allocates nothing, with or
// without a call ending and the next starting in between, once the
// engine's scratch buffers, free lists and frame storage are warm.
func TestStateKeyZeroAllocs(t *testing.T) {
	cfg := partitionConfig(signal.QueueSignal())
	e, err := newMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: settle and descend a couple of steps so frames are live,
	// then exercise the key and snapshot paths once to size the scratch.
	for depth := 0; depth < 3; depth++ {
		choices := e.SettleAt(depth)
		if len(choices) == 0 {
			break
		}
		if err := e.Apply(choices[0], 0); err != nil {
			t.Fatal(err)
		}
	}
	e.SettleAt(3)
	e.StateKey()
	m := e.Save()
	e.Restore(m)
	e.Release(m)

	if n := testing.AllocsPerRun(100, func() { e.StateKey() }); n != 0 {
		t.Errorf("stateKey allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m := e.Save()
		e.Restore(m)
		e.Release(m)
	}); n != 0 {
		t.Errorf("save/restore/release cycle allocates %v per run, want 0", n)
	}
	// The same cycle across a call boundary: p0 finishes its in-flight
	// call, the engine settles it and starts p0's next call, then the
	// node is restored. Call ends and starts recycle frame storage, so
	// this allocates nothing either.
	if e.Phase(0) != engine.Pending || e.Progress(0) >= len(e.Script(0)) {
		t.Fatal("warm-up must leave p0 mid-call with a call left to start")
	}
	callCycle := func() {
		m := e.Save()
		for e.Phase(0) == engine.Pending {
			if err := e.Apply(engine.Choice{PID: 0}, 0); err != nil {
				t.Fatal(err)
			}
		}
		e.SettleAt(4)
		if e.Phase(0) != engine.Idle {
			t.Fatal("p0's call did not complete")
		}
		if err := e.Apply(engine.Choice{PID: 0, Start: true}, 0); err != nil {
			t.Fatal(err)
		}
		e.Restore(m)
		e.Release(m)
	}
	callCycle()
	if n := testing.AllocsPerRun(100, callCycle); n != 0 {
		t.Errorf("save/complete/start/restore/release cycle allocates %v per run, want 0", n)
	}
}
