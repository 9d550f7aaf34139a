package signal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gme"
	"repro/internal/memsim"
	"repro/internal/mutex"
	"repro/internal/semisync"
)

// TestFrameTemplatesMatchFreshFrames pins the contract the engines' frame
// recycling rests on (its name recalls the template cache calls once
// started from): ProgramInto is a pure function of (pid, kind) on a
// deployed instance, whatever storage it is handed, so a call built in
// recycled storage (memsim.FrameSet.Start) is indistinguishable from a
// freshly minted frame. For every algorithm, Blockified included, and
// every (pid, kind), the call is built three ways: into nil, into storage
// left by a frame of another type (another kind's, run part way), and into
// storage left by a frame of its own type, run part way, which it must
// reuse. Each built frame and a fresh one must encode identically at start
// and after every step when both are fed the same Results, issue the same
// accesses, complete together and return the same value. A kind the
// instance refuses must be refused in any storage, leaving it as it was.
// Once a frame's own storage has run a call, building the call there again
// and running it on the same Results allocates nothing: no sub-frame or
// lock section is minted twice.
//
// The lock sections of every mutex lock and of Fischer's timed lock, the
// CSProbe passage over each, and the GME room's entry and exit sections
// take their storage the same way and are held to the same checks.
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
			rng := rand.New(rand.NewSource(1))
			pairs := 0
			for pid := memsim.PID(0); pid < n; pid++ {
				for _, kind := range kinds {
					build := func(dst memsim.Resumable) (memsim.Resumable, error) {
						return inst.ProgramInto(dst, pid, kind)
					}
					// Another type's storage: another kind's call of pid
					// when one has another type, a stray frame otherwise.
					var other memsim.Resumable = &strayFrame{}
					for _, k := range kinds {
						if f, err := inst.ProgramInto(nil, pid, k); err == nil && k != kind && !sameType(f, build) {
							other = f
							break
						}
					}
					pairs += checkBuilds(t, rng, randomResult, fmt.Sprintf("p%d %v", pid, kind), build, other)
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

	locks := mutex.All()
	locks = append(locks, mutex.Algorithm{Name: "fischer", New: func(m *memsim.Machine, n int) (mutex.Lock, error) {
		return semisync.NewFischer(m, n, 2), nil
	}})
	for _, alg := range locks {
		t.Run("lock/"+alg.Name, func(t *testing.T) {
			m := memsim.NewMachine(n)
			lock, err := alg.New(m, n)
			if err != nil {
				t.Fatal(err)
			}
			var pr mutex.CSProbe
			pr.DeployProbe(m, lock)
			rng := rand.New(rand.NewSource(1))
			for pid := memsim.PID(0); pid < n; pid++ {
				acq := func(dst memsim.Resumable) (memsim.Resumable, error) { return lock.AcquireFrame(dst, pid), nil }
				rel := func(dst memsim.Resumable) (memsim.Resumable, error) { return lock.ReleaseFrame(dst, pid), nil }
				pass := func(dst memsim.Resumable) (memsim.Resumable, error) { return pr.PassageFrame(dst, pid), nil }
				relFrame, _ := rel(nil)
				acqFrame, _ := acq(nil)
				checkBuilds(t, rng, lockResult, fmt.Sprintf("p%d acquire", pid), acq, relFrame)
				checkBuilds(t, rng, lockResult, fmt.Sprintf("p%d release", pid), rel, acqFrame)
				checkBuilds(t, rng, lockResult, fmt.Sprintf("p%d passage", pid), pass, acqFrame)
			}
		})
	}

	t.Run("gme/room", func(t *testing.T) {
		g, err := gme.NewRoomLock(memsim.NewMachine(n), n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for pid := memsim.PID(0); pid < n; pid++ {
			session := memsim.Value(pid % 2)
			enter := func(dst memsim.Resumable) (memsim.Resumable, error) { return g.Enter(dst, pid, session), nil }
			exit := func(dst memsim.Resumable) (memsim.Resumable, error) { return g.Exit(dst, pid, session), nil }
			checkBuilds(t, rng, lockResult, fmt.Sprintf("p%d enter", pid), enter, &strayFrame{})
			checkBuilds(t, rng, lockResult, fmt.Sprintf("p%d exit", pid), exit, &strayFrame{})
			// The entry frame runs Exit in the storage its Enter ran in.
			entered, _ := enter(nil)
			runPartWay(rng, lockResult, entered)
			if f, _ := exit(entered); f != entered {
				t.Fatalf("p%d: exit not built in the storage of an entry section", pid)
			}
			fresh, _ := exit(nil)
			driveTwins(t, rng, lockResult, fmt.Sprintf("p%d exit into an entry", pid), fresh, entered)
		}
	})
}

// checkBuilds checks one call's builds against fresh frames of it: into
// nil, into other (storage of another type, run part way) and into storage
// of its own type, run part way, every run fed Results drawn by feed. A
// refused call must be refused in other too, leaving it as it was. It
// returns the number of builds compared.
func checkBuilds(t *testing.T, rng *rand.Rand, feed func(*rand.Rand) memsim.Result, name string, build func(memsim.Resumable) (memsim.Resumable, error), other memsim.Resumable) int {
	t.Helper()
	if _, err := build(nil); err != nil {
		before := memsim.AppendFrameState(nil, other)
		if _, serr := build(other); serr == nil {
			t.Fatalf("%s: build in storage succeeded where a fresh build fails: %v", name, err)
		}
		if after := memsim.AppendFrameState(nil, other); !bytes.Equal(before, after) {
			t.Fatalf("%s: refused build changed its storage: %x, was %x", name, after, before)
		}
		return 0
	}
	runPartWay(rng, feed, other)
	own, _ := build(nil)
	runPartWay(rng, feed, own)
	for _, c := range []struct {
		where string
		dst   memsim.Resumable
	}{{"nil", nil}, {"another type's storage", other}, {"its own type's storage", own}} {
		fresh, _ := build(nil)
		started, err := build(c.dst)
		if err != nil {
			t.Fatalf("%s: build into %s: %v", name, c.where, err)
		}
		if started == nil || started == c.dst && c.dst != own {
			t.Fatalf("%s: build into %s returned %v", name, c.where, started)
		}
		if c.dst == own && started != own {
			t.Fatalf("%s: build did not reuse storage of its own type", name)
		}
		driveTwins(t, rng, feed, name+" into "+c.where, fresh, started)
	}
	if raceEnabled {
		return 3
	}
	// The same call again on the same Results: its storage already holds
	// every sub-frame the run needs.
	results := make([]memsim.Result, 10000)
	for i := range results {
		results[i] = feed(rng)
	}
	run := func() {
		f, _ := build(own)
		var prev memsim.Result
		for i := 0; i < len(results); i++ {
			if _, ok := f.Next(prev); !ok {
				return
			}
			prev = results[i]
		}
		t.Fatalf("%s: call did not complete", name)
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("%s: a call built and run in its own warm storage allocates %v times, want 0", name, allocs)
	}
	return 3
}

// sameType reports whether f has the type of the frame build makes fresh.
func sameType(f memsim.Resumable, build func(memsim.Resumable) (memsim.Resumable, error)) bool {
	g, err := build(nil)
	return err == nil && fmt.Sprintf("%T", f) == fmt.Sprintf("%T", g)
}

// randomResult is a Result the algorithms' frames are fed: value 0 or 1,
// and a random CAS/SC outcome.
func randomResult(rng *rand.Rand) memsim.Result {
	return memsim.Result{Val: memsim.Value(rng.Intn(2)), OK: rng.Intn(2) == 0}
}

// lockResult is a Result the lock and GME frames are fed: NIL or the ID
// of one of the test's four processes, and a random CAS outcome. Fischer's
// lock waits for its word to read NIL and then for its own ID.
func lockResult(rng *rand.Rand) memsim.Result {
	return memsim.Result{Val: memsim.Value(rng.Intn(5) - 1), OK: rng.Intn(2) == 0}
}

// runPartWay runs f a random number of steps on Results drawn by feed, or
// to its end, so that its storage holds the state of a call in flight.
func runPartWay(rng *rand.Rand, feed func(*rand.Rand) memsim.Result, f memsim.Resumable) {
	var prev memsim.Result
	for i := rng.Intn(40); i >= 0; i-- {
		if _, ok := f.Next(prev); !ok {
			return
		}
		prev = feed(rng)
	}
}

// strayFrame is storage of a type no builder builds.
type strayFrame struct{ steps int }

func (f *strayFrame) Next(memsim.Result) (memsim.Access, bool) {
	f.steps++
	return memsim.Access{}, false
}

func (f *strayFrame) Return() memsim.Value { return 0 }

func (f *strayFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// driveTwins feeds the same Results, drawn by feed, to both frames until
// they complete, checking that they stay identical throughout.
func driveTwins(t *testing.T, rng *rand.Rand, feed func(*rand.Rand) memsim.Result, name string, fresh, started memsim.Resumable) {
	t.Helper()
	same := func(step int) {
		a := memsim.AppendFrameState(nil, fresh)
		b := memsim.AppendFrameState(nil, started)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s step %d: built frame encodes %x, fresh frame %x", name, step, b, a)
		}
	}
	same(0)
	var prev memsim.Result
	for step := 1; step <= 10000; step++ {
		accA, okA := fresh.Next(prev)
		accB, okB := started.Next(prev)
		if okA != okB || accA != accB {
			t.Fatalf("%s step %d: built frame issued %v,%v, fresh frame %v,%v", name, step, accB, okB, accA, okA)
		}
		same(step)
		if !okA {
			if fresh.Return() != started.Return() {
				t.Fatalf("%s: built frame returned %d, fresh frame %d", name, started.Return(), fresh.Return())
			}
			return
		}
		prev = feed(rng)
	}
	t.Fatalf("%s: call did not complete", name)
}
