package search

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// Differential state-key tests for the search engine: the binary stateKey
// and the legacy reflective stateKeyLegacy must partition the reachable
// engine states identically, for every listed algorithm crossed with
// every cost model (the model accumulator's state is part of the key, so
// each model exercises a different encoder path — DSM's empty state, the
// coherence models' flattened sharer/owner/residue sections).

func partitionConfig(alg signal.Algorithm, m model.Scorer) Config {
	return Config{
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 6,
		Model:    m,
		Mode:     ModeExhaustive,
		Workers:  1,
	}
}

// keyWalk explores the schedule tree to maxDepth and checks at every node
// that the legacy-key → binary-key relation stays a bijection. The binary
// side compares the raw encoded key bytes, not just the hash.
func keyWalk(t *testing.T, e *sengine, maxDepth int) int {
	t.Helper()
	legacyToBin := map[[16]byte]string{}
	binToLegacy := map[string][16]byte{}
	nodes := 0
	var walk func(depth int)
	walk = func(depth int) {
		choices := e.settleAt(depth)
		legacy := e.stateKeyLegacy()
		e.stateKey()
		bin := string(e.keyBuf)
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
		m := e.save()
		for i, c := range choices {
			if _, err := e.apply(c, i); err != nil {
				t.Fatalf("apply: %v", err)
			}
			walk(depth + 1)
			e.restore(m)
		}
		e.release(m)
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
				e, err := newSengine(partitionConfig(alg, m))
				if err != nil {
					t.Skipf("%s: %v", alg.Name, err)
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
			e, err := newSengine(partitionConfig(signal.QueueSignal(), m))
			if err != nil {
				t.Fatal(err)
			}
			for depth := 0; depth < 3; depth++ {
				choices := e.settleAt(depth)
				if len(choices) == 0 {
					break
				}
				if _, err := e.apply(choices[0], 0); err != nil {
					t.Fatal(err)
				}
			}
			e.settleAt(3)
			e.stateKey()
			mk := e.save()
			e.restore(mk)
			e.release(mk)

			if n := testing.AllocsPerRun(100, func() { e.stateKey() }); n != 0 {
				t.Errorf("stateKey allocates %v per run, want 0", n)
			}
			if n := testing.AllocsPerRun(100, func() {
				mk := e.save()
				e.restore(mk)
				e.release(mk)
			}); n != 0 {
				t.Errorf("save/restore/release cycle allocates %v per run, want 0", n)
			}
			// Across a call boundary: p0 finishes its in-flight call (each
			// step priced by the accumulator), the engine settles it and
			// starts p0's next call, then the node is restored.
			if e.phase[0] != sPending || e.progress[0] >= len(e.scripts[0]) {
				t.Fatal("warm-up must leave p0 mid-call with a call left to start")
			}
			callCycle := func() {
				mk := e.save()
				for e.phase[0] == sPending {
					if _, err := e.apply(choice{pid: 0}, 0); err != nil {
						t.Fatal(err)
					}
				}
				e.settleAt(4)
				if e.phase[0] != sIdle {
					t.Fatal("p0's call did not complete")
				}
				if _, err := e.apply(choice{pid: 0, start: true}, 0); err != nil {
					t.Fatal(err)
				}
				e.restore(mk)
				e.release(mk)
			}
			callCycle()
			if n := testing.AllocsPerRun(100, callCycle); n != 0 {
				t.Errorf("save/complete/start/restore/release cycle allocates %v per run, want 0", n)
			}
		})
	}
}
