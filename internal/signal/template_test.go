package signal

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// TestFrameTemplatesMatchFreshFrames pins the contract the engines' frame
// recycling rests on: ResumableProgram is a pure function of (pid, kind)
// on a deployed instance, so a call started from the cached template into
// recycled storage (memsim.FrameSet.Start) is indistinguishable from a
// freshly minted frame. For every algorithm, both frames must encode
// identically at start and after every step when both
// are fed the same Results, issue the same accesses, complete together and
// return the same value. Each (pid, kind) is started twice into the same
// slot: once into storage left by another kind's frame, once into its own
// kind's storage, dirtied by the previous run.
func TestFrameTemplatesMatchFreshFrames(t *testing.T) {
	const n = 4
	kinds := []memsim.CallKind{memsim.CallPoll, memsim.CallSignal, memsim.CallWait}
	var algs []Algorithm
	for _, alg := range All() {
		algs = append(algs, alg)
		if alg.Variant.Polling {
			algs = append(algs, Blockified(alg))
		}
	}
	tested := 0
	for _, alg := range algs {
		t.Run(alg.Name, func(t *testing.T) {
			inst, err := alg.New(memsim.NewMachine(n), n)
			if err != nil {
				t.Fatal(err)
			}
			tmpl := memsim.NewFrameTemplates(inst, n)
			set := memsim.NewFrameSet(n)
			rng := rand.New(rand.NewSource(1))
			pairs := 0
			for pid := memsim.PID(0); pid < n; pid++ {
				for _, kind := range kinds {
					for round := 0; round < 2; round++ {
						fresh, err := inst.ResumableProgram(pid, kind)
						if err != nil {
							if serr := set.Start(tmpl, pid, kind); serr == nil {
								t.Fatalf("p%d %v: template start succeeded where ResumableProgram fails: %v", pid, kind, err)
							}
							continue
						}
						if err := set.Start(tmpl, pid, kind); err != nil {
							t.Fatalf("p%d %v: start from template: %v", pid, kind, err)
						}
						started := set.Frame(pid)
						driveTwins(t, rng, pid, kind, fresh, started)
						set.Drop(pid)
						pairs++
					}
				}
			}
			if pairs == 0 {
				t.Skipf("%s starts no call in resumable form", alg.Name)
			}
			tested += pairs
		})
	}
	if tested == 0 {
		t.Fatal("no (pid, kind) pair had a resumable frame")
	}
}

// driveTwins feeds the same random Results (values 0 and 1, random CAS/SC
// outcomes) to both frames until they complete, checking that they stay
// identical throughout.
func driveTwins(t *testing.T, rng *rand.Rand, pid memsim.PID, kind memsim.CallKind, fresh, started memsim.Resumable) {
	t.Helper()
	same := func(step int) {
		a := memsim.AppendFrameState(nil, fresh)
		b := memsim.AppendFrameState(nil, started)
		if !bytes.Equal(a, b) {
			t.Fatalf("p%d %v step %d: template frame encodes %x, fresh frame %x", pid, kind, step, b, a)
		}
	}
	same(0)
	var prev memsim.Result
	for step := 1; step <= 10000; step++ {
		accA, okA := fresh.Next(prev)
		accB, okB := started.Next(prev)
		if okA != okB || accA != accB {
			t.Fatalf("p%d %v step %d: template frame issued %v,%v, fresh frame %v,%v", pid, kind, step, accB, okB, accA, okA)
		}
		same(step)
		if !okA {
			if fresh.Return() != started.Return() {
				t.Fatalf("p%d %v: template frame returned %d, fresh frame %d", pid, kind, started.Return(), fresh.Return())
			}
			return
		}
		prev = memsim.Result{Val: memsim.Value(rng.Intn(2)), OK: rng.Intn(2) == 0}
	}
	t.Fatalf("p%d %v: call did not complete", pid, kind)
}
