package search

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// The key-digest tests pin the state-key layout byte for byte: the
// key-stream digests below were computed with the per-engine key code
// that preceded the shared node-expansion core (internal/engine).
// Checkpoint snapshots (.rpck) persist claim/memo keys, so a layout
// change would let a snapshot written by an older build resume silently
// into wrong answers; it must instead come with a fingerprint marker that
// refuses such snapshots, and new digests.
//
// One change is deliberate: reduced keys under faults now carry the
// consumed fault budget after the machine state, as the explorer's always
// did, instead of right after the sorted-group mask. Those digests (marked
// keys2) were recomputed, and Fingerprint marks the regime "|keys2" so an
// earlier snapshot is refused (TestFaultCheckpointCompat).

// digestConfig is the digest workload: two identically-scripted pollers
// (a symmetry group wherever the algorithm declares roles) and a
// signaler, optionally with one crash or lost-CAS fault.
func digestConfig(alg signal.Algorithm, m model.Scorer, faults int) Config {
	cfg := Config{
		Model:   m,
		Mode:    ModeExhaustive,
		Workers: 1,
		Factory: alg.New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 6,
	}
	if faults > 0 {
		cfg.Faults = memsim.FaultPolicy{Max: faults, Kinds: memsim.SetCrash | memsim.SetLostCAS}
	}
	return cfg
}

// digestWalk hashes the state-key stream of a fixed DFS to maxDepth: at
// every node the raw key bytes (reduced over the node's sleep set when
// red is non-nil, plain otherwise), length-prefixed, in visit order. The
// walk mirrors the engines' expansion — slept children are skipped, sleep
// sets propagate — but claims nothing, so every node is visited. It
// returns "nodes/digest".
func digestWalk(t *testing.T, e *engine.Core, red *engine.Reduction, maxDepth int) string {
	t.Helper()
	h := sha256.New()
	nodes := 0
	var walk func(depth int, sleep uint64)
	walk = func(depth int, sleep uint64) {
		choices := e.SettleAt(depth)
		e.Key(red, sleep)
		key := e.KeyBytes()
		h.Write(binary.AppendUvarint(nil, uint64(len(key))))
		h.Write(key)
		nodes++
		if len(choices) == 0 || depth >= maxDepth {
			return
		}
		var earlier [64]uint64
		red.EarlierMasks(choices, &earlier)
		m := e.Save()
		for i, c := range choices {
			if red.Asleep(c, sleep) {
				continue
			}
			childSleep, err := e.Child(red, choices, i, sleep, &earlier)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}
			walk(depth+1, childSleep)
			e.Restore(m)
		}
		e.Release(m)
	}
	walk(0, 0)
	return fmt.Sprintf("%d/%x", nodes, h.Sum(nil)[:12])
}

// searchKeyDigests: algorithm, model, reduced, faults, "nodes/digest".
// The model's pricing state is part of the key; DSM reduces by sleep
// sets and symmetry, CC by sleep sets alone.
var searchKeyDigests = []struct {
	alg     string
	model   string
	reduced bool
	faults  int
	want    string
}{
	{"flag", "DSM", false, 0, "723/42632e91480fa72c52253f4c"},
	{"flag", "DSM", false, 1, "2598/aa270887ecfec8d230e9ac28"},
	{"flag", "DSM", true, 0, "65/70102a426aec8f3720200093"},
	{"flag", "DSM", true, 1, "455/a79d01fec0e46e4dc7f48b4a"}, // keys2
	{"flag", "CC-WT/bus", false, 0, "723/1b688549f64faaa7d742ff55"},
	{"flag", "CC-WT/bus", false, 1, "2598/1f7d2f3625343934032d7b46"},
	{"flag", "CC-WT/bus", true, 0, "65/6184d5e767f913b5bced8427"},
	{"flag", "CC-WT/bus", true, 1, "455/a8c10603ce6ec7bcd6023237"}, // keys2
	{"single-waiter", "DSM", false, 0, "1008/b6c0c660ca285ba0186e2f4b"},
	{"single-waiter", "DSM", false, 1, "3992/fc0f287ee3494501ecb4cf70"},
	{"single-waiter", "DSM", true, 0, "74/35735f295c35338d5f68ef54"},
	{"single-waiter", "DSM", true, 1, "663/a5a48341fa9b29a19636d69c"}, // keys2
	{"single-waiter", "CC-WT/bus", false, 0, "1008/5cd9e7056752b6d97a0d0c5e"},
	{"single-waiter", "CC-WT/bus", false, 1, "3992/f14750c35a0b9e174659167b"},
	{"single-waiter", "CC-WT/bus", true, 0, "74/b061386b6908b231535a75f5"},
	{"single-waiter", "CC-WT/bus", true, 1, "663/103ae9cf7b075b53af4df922"}, // keys2
	{"fixed-waiters", "DSM", false, 0, "1013/bb5d3b90d8ea1b0e692fc47d"},
	{"fixed-waiters", "DSM", false, 1, "3484/4347b5c8bc674e218c521ad1"},
	{"fixed-waiters", "DSM", true, 0, "82/1d5a799d7466913dc8529d9b"},
	{"fixed-waiters", "DSM", true, 1, "592/e803147cb8d22f2aceee7a1a"}, // keys2
	{"fixed-waiters", "CC-WT/bus", false, 0, "1013/28a8027c8c19e10c8b6fac64"},
	{"fixed-waiters", "CC-WT/bus", false, 1, "3484/ab9a80f25136d73da5d37338"},
	{"fixed-waiters", "CC-WT/bus", true, 0, "82/eb060cc1acda649e3c813971"},
	{"fixed-waiters", "CC-WT/bus", true, 1, "592/4ea74a41a7d3f11e46a127a6"}, // keys2
	{"fixed-waiters-terminating", "DSM", false, 0, "1093/8fb7ec9fe4bab8e9d04c36e9"},
	{"fixed-waiters-terminating", "DSM", false, 1, "4208/f195871c6e48ad8e59667637"},
	{"fixed-waiters-terminating", "DSM", true, 0, "85/332f8f61ffb40d42a5314484"},
	{"fixed-waiters-terminating", "DSM", true, 1, "713/bf265b9df4830ee2291940e7"}, // keys2
	{"fixed-waiters-terminating", "CC-WT/bus", false, 0, "1093/a707ccd3238b638a4750e698"},
	{"fixed-waiters-terminating", "CC-WT/bus", false, 1, "4208/10abf7cbf12a629fd453af2c"},
	{"fixed-waiters-terminating", "CC-WT/bus", true, 0, "85/2cb2cdc4ae4c6938c093b181"},
	{"fixed-waiters-terminating", "CC-WT/bus", true, 1, "713/d38a98751cf021a190e2c07f"}, // keys2
	{"registered-waiters", "DSM", false, 0, "1092/e2d410d2b5f2e9554f57c4f0"},
	{"registered-waiters", "DSM", false, 1, "4206/9ac4b4cef8616ebd1a3990d7"},
	{"registered-waiters", "DSM", true, 0, "83/9402e6dc3631d5ec3531b9e3"},
	{"registered-waiters", "DSM", true, 1, "710/4c4f84a512abf60be89e7342"}, // keys2
	{"registered-waiters", "CC-WT/bus", false, 0, "1092/dfee4a0e8eb9212ada6a5de2"},
	{"registered-waiters", "CC-WT/bus", false, 1, "4206/a43a5aff48c3969d7ed594ef"},
	{"registered-waiters", "CC-WT/bus", true, 0, "83/02e2b68faadcbb1821ad5104"},
	{"registered-waiters", "CC-WT/bus", true, 1, "710/d24de1b7db3287a8cbe3ee39"}, // keys2
	{"queue", "DSM", false, 0, "1008/07bad2fe19c0f0411ca2e85d"},
	{"queue", "DSM", false, 1, "3994/cd1a5c6b1eae514034e75174"},
	{"queue", "DSM", true, 0, "74/788fce6d469fed8753885ec4"},
	{"queue", "DSM", true, 1, "665/3b0f01a911e84db41bc69b1b"}, // keys2
	{"queue", "CC-WT/bus", false, 0, "1008/a9d91c0f984a2106106a26a1"},
	{"queue", "CC-WT/bus", false, 1, "3994/344835db4f15aff4ce0d0bf3"},
	{"queue", "CC-WT/bus", true, 0, "74/586729200b6190d39d1a8544"},
	{"queue", "CC-WT/bus", true, 1, "665/e0be92208200459ffd05f9e8"}, // keys2
	{"cas-register", "DSM", false, 0, "1008/54d34176eeecac58c8cb104d"},
	{"cas-register", "DSM", false, 1, "4162/bd650166b5d82fb8da1cc062"},
	{"cas-register", "DSM", true, 0, "74/470f093e741dce429bb1104b"},
	{"cas-register", "DSM", true, 1, "705/43aa6b5b78911f7c0efb3679"}, // keys2
	{"cas-register", "CC-WT/bus", false, 0, "1008/ed74d5bf6d93335303fc919c"},
	{"cas-register", "CC-WT/bus", false, 1, "4162/5f432edde6fb375b673475ff"},
	{"cas-register", "CC-WT/bus", true, 0, "74/ce98a5700e68f5e49cee1221"},
	{"cas-register", "CC-WT/bus", true, 1, "705/b7f27f9687f46c2aedeb97f0"}, // keys2
	{"cas-register-rw", "DSM", false, 0, "1008/1b99fd050b327ad0187c6754"},
	{"cas-register-rw", "DSM", false, 1, "3994/dc30fbaf6b7ad47d785d7372"},
	{"cas-register-rw", "DSM", true, 0, "74/6940f47cb077a44b84dbd1a9"},
	{"cas-register-rw", "DSM", true, 1, "665/cec6fc8e464bf27cc0b09568"}, // keys2
	{"cas-register-rw", "CC-WT/bus", false, 0, "1008/6571dc684613194d84708c1c"},
	{"cas-register-rw", "CC-WT/bus", false, 1, "3994/c66aa0b4dbdca36b30d7cdc4"},
	{"cas-register-rw", "CC-WT/bus", true, 0, "74/4b1450ece48ee89a7540e2a0"},
	{"cas-register-rw", "CC-WT/bus", true, 1, "665/b7fd9148a8fb8427faeebd8b"}, // keys2
	{"llsc-register", "DSM", false, 0, "1008/ff19585ca6b374bb5eaea8f5"},
	{"llsc-register", "DSM", false, 1, "3994/7f042c7d83715f546fd23e25"},
	{"llsc-register", "DSM", true, 0, "74/e2d7692388221ec7dd04a61f"},
	{"llsc-register", "DSM", true, 1, "665/e10c5f1ab554db2f3ad27cad"}, // keys2
	{"llsc-register", "CC-WT/bus", false, 0, "1008/6e6432858a5cc0871773407d"},
	{"llsc-register", "CC-WT/bus", false, 1, "3994/03597f44033615921cd65a14"},
	{"llsc-register", "CC-WT/bus", true, 0, "74/32fd951c5444805ecc87de07"},
	{"llsc-register", "CC-WT/bus", true, 1, "665/c7bdb73dd850dcf69255f669"}, // keys2
	{"llsc-register-rw", "DSM", false, 0, "1008/db4852496ca86319da4ba2d2"},
	{"llsc-register-rw", "DSM", false, 1, "3994/a89e37ad5162cf9d8e3fc0ce"},
	{"llsc-register-rw", "DSM", true, 0, "74/c2ef06a07aaceacf7164e86b"},
	{"llsc-register-rw", "DSM", true, 1, "665/d2fb50e54b83c7ab45cab563"}, // keys2
	{"llsc-register-rw", "CC-WT/bus", false, 0, "1008/a0d1bff9ef52f26316ee841d"},
	{"llsc-register-rw", "CC-WT/bus", false, 1, "3994/3c98faf68d08ae6c655bc22e"},
	{"llsc-register-rw", "CC-WT/bus", true, 0, "74/7a3fd43611348f134211b5ad"},
	{"llsc-register-rw", "CC-WT/bus", true, 1, "665/fc13448be051f3996cb05f24"}, // keys2
	{"multi-signaler", "DSM", false, 0, "1092/ce74a353fae059130d0331c9"},
	{"multi-signaler", "DSM", false, 1, "4208/261b5caca5eb3d22a25580b0"},
	{"multi-signaler", "DSM", true, 0, "83/1910e553637e00356c076585"},
	{"multi-signaler", "DSM", true, 1, "712/55ce9c0d74eb201e0f137389"}, // keys2
	{"multi-signaler", "CC-WT/bus", false, 0, "1092/0056dd5015263202b7ee30af"},
	{"multi-signaler", "CC-WT/bus", false, 1, "4208/9d7bbf1a9f016d2243993042"},
	{"multi-signaler", "CC-WT/bus", true, 0, "83/7d6aaaca002c7a7dc07a108d"},
	{"multi-signaler", "CC-WT/bus", true, 1, "712/cddac8a1bf50eed260a53b2e"}, // keys2
}

// TestSearchStateKeyDigest: for every polling algorithm, under DSM and CC,
// plain and reduced, with and without faults, the searcher's key stream is
// byte-identical to the pinned digest.
func TestSearchStateKeyDigest(t *testing.T) {
	want := map[string]string{}
	for _, d := range searchKeyDigests {
		want[fmt.Sprintf("%s/%s/reduced=%v/faults=%d", d.alg, d.model, d.reduced, d.faults)] = d.want
	}
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue
		}
		for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC} {
			for _, reduced := range []bool{false, true} {
				for _, faults := range []int{0, 1} {
					name := fmt.Sprintf("%s/%s/reduced=%v/faults=%d", alg.Name, m.Name(), reduced, faults)
					e, err := newPricer(digestConfig(alg, m, faults))
					if err != nil {
						if _, ok := want[name]; ok {
							t.Errorf("%s: pinned but the engine refuses it: %v", name, err)
						}
						continue
					}
					var red *engine.Reduction
					if reduced {
						red = newReduction(e, m)
					}
					got := digestWalk(t, e.Core, red, 6)
					if want[name] != got {
						t.Errorf("%s: key stream %s, want %s", name, got, want[name])
					}
					delete(want, name)
				}
			}
		}
	}
	for name := range want {
		t.Errorf("%s: pinned digest never checked", name)
	}
}
