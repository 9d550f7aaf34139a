package search

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// Differential state-key tests for the search engine: the binary StateKey
// and stateKeyLegacy must partition the reachable engine states
// identically, for every listed algorithm crossed with every cost model
// (the model accumulator's state is part of the key, so each model
// exercises a different encoder path — DSM's empty state, the coherence
// models' flattened sharer/owner/residue sections).

func partitionConfig(alg signal.Algorithm, m model.Scorer) Config {
	scripts := map[memsim.PID][]memsim.CallKind{
		0: {memsim.CallPoll, memsim.CallPoll},
		1: {memsim.CallPoll},
		3: {memsim.CallSignal},
	}
	if !alg.Variant.Polling {
		scripts[0], scripts[1] = []memsim.CallKind{memsim.CallWait}, []memsim.CallKind{memsim.CallWait}
	}
	return Config{
		Factory:  alg.New,
		N:        4,
		Scripts:  scripts,
		MaxDepth: 6,
		Model:    m,
		Mode:     ModeExhaustive,
		Workers:  1,
	}
}

// stateKeyLegacy is the original fmt-rendered state key, rebuilt from the
// pricer's state: the oracle of the encoder-equivalence tests. The binary
// StateKey must merge exactly the states this key merges, for every
// algorithm and model. It re-derives the key's framing on its own (memory
// words, LL reservations, phases, call kinds, pending accesses, frame type
// names); only the frame and model content comes from
// memsim.AppendFrameState and AppendModelState.
func stateKeyLegacy(e *pricer) [16]byte {
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
	if e.Faults().Enabled() {
		fmt.Fprintf(h, "faults%d;", e.FaultsUsed())
	}
	for pid := 0; pid < e.N(); pid++ {
		p := memsim.PID(pid)
		if e.Script(p) == nil {
			continue
		}
		kind := memsim.CallKind(0)
		if e.Phase(p) != engine.Idle {
			kind = e.Kind(p) // the in-flight call drives the poll-stop rule
		}
		fmt.Fprintf(h, "p%d:%d,%d,%d;", pid, e.Phase(p), e.Progress(p), kind)
		if e.Phase(p) == engine.Pending {
			acc := e.Pending(p)
			fmt.Fprintf(h, "a%d,%d,%d,%d;", acc.Op, acc.Addr, acc.Arg1, acc.Arg2)
		}
		if f := e.Frame(p); f != nil {
			fmt.Fprintf(h, "f%x;", memsim.AppendFrameState(nil, f))
		}
	}
	fmt.Fprintf(h, "m%x", e.acc.(model.ModelStateAppender).AppendModelState(nil))
	var key [16]byte
	copy(key[:], h.Sum(nil))
	return key
}

// keyWalk explores the schedule tree to maxDepth and checks at every node
// that the legacy-key → binary-key relation stays a bijection. The binary
// side compares the raw encoded key bytes, not just the hash.
func keyWalk(t *testing.T, e *pricer, maxDepth int) int {
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

// TestSearchStateKeyPartitionMatchesLegacy quantifies the partition
// property over algorithms × cost models.
func TestSearchStateKeyPartitionMatchesLegacy(t *testing.T) {
	for _, alg := range signal.All() {
		for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC, model.ModelCCWriteBack} {
			alg, m := alg, m
			t.Run(alg.Name+"/"+m.Name(), func(t *testing.T) {
				e, err := newPricer(partitionConfig(alg, m))
				if err != nil {
					t.Fatal(err)
				}
				nodes := keyWalk(t, e, 6)
				t.Logf("%d nodes walked", nodes)
			})
		}
	}
}

// TestSearchStateKeyZeroAllocs pins the search hot path's allocation
// discipline once scratch and pools are warm: one encode+hash of a
// steady-state node, and one snapshot/restore cycle (including the
// accumulator fork, which recycles the discarded fork's backing arrays),
// with or without a call ending and the next starting in between, all
// allocate nothing.
func TestSearchStateKeyZeroAllocs(t *testing.T) {
	for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC, model.ModelCCWriteBack} {
		t.Run(m.Name(), func(t *testing.T) {
			e, err := newPricer(partitionConfig(signal.QueueSignal(), m))
			if err != nil {
				t.Fatal(err)
			}
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
			mk := e.Save()
			e.Restore(mk)
			e.Release(mk)

			if n := testing.AllocsPerRun(100, func() { e.StateKey() }); n != 0 {
				t.Errorf("stateKey allocates %v per run, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				mk := e.Save()
				e.Restore(mk)
				e.Release(mk)
			}); n != 0 {
				t.Errorf("save/restore/release cycle allocates %v per run, want 0", n)
			}
			// Across a call boundary: p0 finishes its in-flight call (each
			// step priced by the accumulator), the engine settles it and
			// starts p0's next call, then the node is restored.
			if e.Phase(0) != engine.Pending || e.Progress(0) >= len(e.Script(0)) {
				t.Fatal("warm-up must leave p0 mid-call with a call left to start")
			}
			callCycle := func() {
				mk := e.Save()
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
				e.Restore(mk)
				e.Release(mk)
			}
			callCycle()
			if n := testing.AllocsPerRun(100, callCycle); n != 0 {
				t.Errorf("save/complete/start/restore/release cycle allocates %v per run, want 0", n)
			}
		})
	}
}
