package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/signal"
)

// The key-digest tests pin the state-key layout byte for byte: the
// key-stream digests below were computed with the per-engine key code
// that preceded the shared node-expansion core (internal/engine).
// Checkpoint snapshots (.rpck) persist claim/memo keys, so a layout
// change would let a snapshot written by an older build resume silently
// into wrong answers; it must instead come with a fingerprint marker that
// refuses such snapshots, and new digests.

// digestConfig is the digest workload: two identically-scripted pollers
// (a symmetry group wherever the algorithm declares roles) and a
// signaler, optionally with one crash or lost-CAS fault.
func digestConfig(alg signal.Algorithm, faults int) Config {
	cfg := Config{
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

// exploreKeyDigests: algorithm, reduced, faults, "nodes/digest".
var exploreKeyDigests = []struct {
	alg     string
	reduced bool
	faults  int
	want    string
}{
	{"flag", false, 0, "723/19cfa7a2bfef73caebba2630"},
	{"flag", false, 1, "2598/fda0b36f1fc6de46cc8c5687"},
	{"flag", true, 0, "95/4b2e3a1965b0e8d2e24b2a42"},
	{"flag", true, 1, "566/b5b34491970415450da93aa4"},
	{"single-waiter", false, 0, "1008/9fc12b963cd674537f06a669"},
	{"single-waiter", false, 1, "3992/eb38343d5d2cbae8ef2f01c0"},
	{"single-waiter", true, 0, "165/662349691257ad6c55ed0f26"},
	{"single-waiter", true, 1, "1015/acf90e2fcba316b85b8eed0e"},
	{"fixed-waiters", false, 0, "1013/7214a10f198c0b662cec806b"},
	{"fixed-waiters", false, 1, "3484/184e1b4908011eda2e8773ef"},
	{"fixed-waiters", true, 0, "139/b7b7edf074e19677c5183821"},
	{"fixed-waiters", true, 1, "784/f25c0d4641b3f2dca8d1e26d"},
	{"fixed-waiters-terminating", false, 0, "1093/c9bf2f10534fdde2288c8560"},
	{"fixed-waiters-terminating", false, 1, "4208/3e4fc789ca085679991a177b"},
	{"fixed-waiters-terminating", true, 0, "163/ba308c3e4937196a7ac9db64"},
	{"fixed-waiters-terminating", true, 1, "1026/2af409ef886ad3184fd0437a"},
	{"registered-waiters", false, 0, "1092/0eab1a1e2964a358d87140e0"},
	{"registered-waiters", false, 1, "4206/bac22ac5d1b56e6a1fae25bc"},
	{"registered-waiters", true, 0, "161/b6345686e71c5e47c0edfa3c"},
	{"registered-waiters", true, 1, "1023/573eaabc90b107b195eb963b"},
	{"queue", false, 0, "1008/3f464424833d36541b709d7f"},
	{"queue", false, 1, "3994/edfb97c3bfe00712fea76b1d"},
	{"queue", true, 0, "165/96680f8bc8b5cd13e2c6b41f"},
	{"queue", true, 1, "1017/01555417c54081f2781713c6"},
	{"cas-register", false, 0, "1008/4d4f6928f8d723c0b218e0c4"},
	{"cas-register", false, 1, "4162/f407452c1268576f4f4b77e5"},
	{"cas-register", true, 0, "165/d730ef2749de62d1d57d0094"},
	{"cas-register", true, 1, "1083/5d365f4ed0c1c4da8a42ff35"},
	{"cas-register-rw", false, 0, "1008/2ac663a242fd2dd3fbeb2615"},
	{"cas-register-rw", false, 1, "3994/6a71bf8d86db4d65e7f76006"},
	{"cas-register-rw", true, 0, "165/604c3dc010c1a6537f1fe495"},
	{"cas-register-rw", true, 1, "1017/38c677c97fe7069b462d4001"},
	{"llsc-register", false, 0, "1008/56f5c28c05718fb9a20448f9"},
	{"llsc-register", false, 1, "3994/5fc05b99457b63ecabef5c82"},
	{"llsc-register", true, 0, "165/a0e913217525c9ed8ebe96f1"},
	{"llsc-register", true, 1, "1017/19c489144b8daf70a5fae3ec"},
	{"llsc-register-rw", false, 0, "1008/23bad45689293dcfd2421f9d"},
	{"llsc-register-rw", false, 1, "3994/6a67bda13ecfad04038f2f03"},
	{"llsc-register-rw", true, 0, "165/9fef732b9aba8e946889b131"},
	{"llsc-register-rw", true, 1, "1017/f97e4aae90970e9287b678ca"},
	{"multi-signaler", false, 0, "1092/89f07a892b057e61b8f83a09"},
	{"multi-signaler", false, 1, "4208/20c6ae47e0a10bce5b805846"},
	{"multi-signaler", true, 0, "161/8e36402b22a8573fa4b6abbe"},
	{"multi-signaler", true, 1, "1025/01ed139701d446517f41e02e"},
}

// TestStateKeyDigest: for every polling algorithm, plain and reduced, with
// and without faults, the explorer's key stream is byte-identical to the
// pinned digest.
func TestStateKeyDigest(t *testing.T) {
	want := map[string]string{}
	for _, d := range exploreKeyDigests {
		want[fmt.Sprintf("%s/reduced=%v/faults=%d", d.alg, d.reduced, d.faults)] = d.want
	}
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue
		}
		for _, reduced := range []bool{false, true} {
			for _, faults := range []int{0, 1} {
				name := fmt.Sprintf("%s/reduced=%v/faults=%d", alg.Name, reduced, faults)
				cfg := digestConfig(alg, faults)
				e, err := newMonitor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var red *engine.Reduction
				if reduced {
					red = engine.NewReduction(e.Core, true, true)
				}
				got := digestWalk(t, e.Core, red, cfg.MaxDepth)
				if want[name] != got {
					t.Errorf("%s: key stream %s, want %s", name, got, want[name])
				}
				delete(want, name)
			}
		}
	}
	for name := range want {
		t.Errorf("%s: pinned digest never checked", name)
	}
}
