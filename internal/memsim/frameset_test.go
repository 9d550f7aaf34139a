package memsim

import (
	"reflect"
	"sync"
	"testing"
)

// readInstance builds a readFrame of address pid for Poll and counts the
// frames it had to allocate; every other kind is unsupported.
type readInstance struct{ minted int }

func (in *readInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	if kind != CallPoll {
		return nil, errNoProgram
	}
	if _, ok := dst.(*readFrame); !ok {
		in.minted++
	}
	return BuildFrame(dst, readFrame{addr: Addr(pid)}), nil
}

// TestFrameSetRecyclesStorage: a call start builds the pristine frame in
// the slot's retained storage, a refused start leaves the slot as it was,
// a drop only idles the slot, and copies between sets reuse the
// destination's storage and never alias the source's frames. Once warm,
// none of it allocates.
func TestFrameSetRecyclesStorage(t *testing.T) {
	in := &readInstance{}
	eng, snap := NewFrameSet(2), NewFrameSet(2)

	if err := eng.Start(in, 1, CallSignal); err == nil {
		t.Fatal("unsupported kind started")
	}
	if err := eng.Start(in, 1, CallPoll); err != nil {
		t.Fatal(err)
	}
	first := eng.Frame(1)
	if first == nil || eng.Frame(0) != nil {
		t.Fatal("start must make exactly p1 live")
	}
	if _, ok := first.Next(Result{}); !ok {
		t.Fatal("read frame should have a pending access")
	}
	snap.CopyFrom(&eng)
	if snap.Frame(1) == first {
		t.Fatal("copy aliases the source frame")
	}
	if _, ok := first.Next(Result{Val: 7}); ok || first.Return() != 7 {
		t.Fatal("engine frame should complete with 7")
	}
	eng.Drop(1)
	if eng.Frame(1) != nil {
		t.Fatal("drop must idle the slot")
	}

	// The next call starts pristine in the same storage.
	if err := eng.Start(in, 1, CallPoll); err != nil {
		t.Fatal(err)
	}
	if eng.Frame(1) != first {
		t.Fatal("start did not reuse the slot's storage")
	}
	if f := first.(*readFrame); *f != (readFrame{addr: 1}) {
		t.Fatalf("restarted frame = %+v, want pristine", *f)
	}
	if in.minted != 1 {
		t.Fatalf("ProgramInto allocated %d frames, want 1", in.minted)
	}
	// A refused start leaves the idle slot's storage for the next one.
	eng.Drop(1)
	if err := eng.Start(in, 1, CallWait); err == nil || eng.Frame(1) != nil {
		t.Fatal("unsupported kind started, or made the slot live")
	}
	if err := eng.Start(in, 1, CallPoll); err != nil || eng.Frame(1) != first {
		t.Fatalf("start after a refused one did not reuse the slot's storage: %v", err)
	}

	// Restoring the snapshot resumes the copied, mid-call state.
	eng.CopyFrom(&snap)
	if _, ok := eng.Frame(1).Next(Result{Val: 9}); ok || eng.Frame(1).Return() != 9 {
		t.Fatal("restored frame should complete with 9")
	}
	if f := snap.Frame(1).(*readFrame); f.pc != 1 || f.ret != 0 {
		t.Fatalf("snapshot frame disturbed: %+v", *f)
	}

	// Idle slots copy as idle, and the cycle is allocation-free.
	if n := testing.AllocsPerRun(100, func() {
		eng.Drop(1)
		snap.CopyFrom(&eng)
		if err := eng.Start(in, 1, CallPoll); err != nil {
			t.Fatal(err)
		}
		snap.CopyFrom(&eng)
		eng.CopyFrom(&snap)
	}); n != 0 {
		t.Errorf("start/drop/copy cycle allocates %v per run, want 0", n)
	}
	eng.Drop(1)
	snap.CopyFrom(&eng)
	if snap.Frame(1) != nil {
		t.Fatal("idle slot copied as live")
	}
}

// switchInstance builds, for process pid, a readFrame of address base+pid
// for Poll and an incFrame of the same address for Signal: two frame
// types, so a slot running Poll and Signal in turn changes type on every
// start.
type switchInstance struct{ base Addr }

func (in switchInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	switch kind {
	case CallPoll:
		return BuildFrame(dst, readFrame{addr: in.base + Addr(pid)}), nil
	case CallSignal:
		return BuildFrame(dst, incFrame{a: in.base + Addr(pid), times: 1}), nil
	}
	return nil, errNoProgram
}

// TestFrameSetPoolsDisplacedFrames: a slot whose calls alternate between
// two frame types sets each displaced frame aside and takes the next one
// from its type's pool, so once warm the alternation allocates nothing,
// and neither do snapshot copies between sets whose slots hold the other
// type. A frame taken from a pool after a deployment change is built
// whole: it starts pristine for the new deployment, with nothing of the
// run it was set aside in.
func TestFrameSetPoolsDisplacedFrames(t *testing.T) {
	var f Frames
	f.Reset(switchInstance{}, 2)
	snap := NewFrameSet(2)
	cycle := func() {
		for _, kind := range []CallKind{CallPoll, CallSignal} {
			for p := PID(0); p < 2; p++ {
				if err := f.Start(p, kind); err != nil {
					t.Fatal(err)
				}
			}
			snap.CopyFrom(&f.set)
			f.DropAll()
		}
	}
	cycle()
	if !raceEnabled { // the race detector's sync.Pool drops items at random
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("alternating frame types in a slot allocates %v times per cycle, want 0", n)
		}
	}

	// Leave a read frame mid-call and a finished increment in p0's slot,
	// each set aside when the other type displaces it.
	if err := f.Start(0, CallPoll); err != nil {
		t.Fatal(err)
	}
	read := f.Frame(0).(*readFrame)
	read.Next(Result{})
	f.Drop(0)
	if err := f.Start(0, CallSignal); err != nil {
		t.Fatal(err)
	}
	inc := f.Frame(0).(*incFrame)
	inc.Next(Result{})
	inc.Next(Result{Val: 4})
	inc.Next(Result{OK: true})
	if _, ok := inc.Next(Result{Val: 5}); ok || inc.Return() != 5 {
		t.Fatal("increment frame should complete with 5")
	}
	f.Drop(0)

	f.Reset(switchInstance{base: 10}, 1)
	for _, c := range []struct {
		kind CallKind
		was  Resumable
		want Resumable
	}{
		{CallPoll, read, pristine(CallPoll, 10)},
		{CallSignal, inc, pristine(CallSignal, 10)},
	} {
		if err := f.Start(0, c.kind); err != nil {
			t.Fatal(err)
		}
		got := f.Frame(0)
		if !raceEnabled && got != c.was {
			t.Errorf("a %T start did not take the frame its type's pool kept", got)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("a %T taken after a deployment change = %+v, want pristine %+v", got, got, c.want)
		}
		f.Drop(0)
	}
}

// TestFramePoolsAcrossGoroutines: owners on several goroutines set frames
// aside and take them back from the same pools at once; every frame an
// owner takes is built whole for its own deployment and stays its own
// until it sets it aside (run under -race, a frame two owners held would
// also show as a data race).
func TestFramePoolsAcrossGoroutines(t *testing.T) {
	const owners, rounds = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < owners; g++ {
		wg.Add(1)
		go func(base Addr) {
			defer wg.Done()
			var f Frames
			f.Reset(switchInstance{base: base}, 2)
			for r := 0; r < rounds; r++ {
				kind := []CallKind{CallPoll, CallSignal}[r%2]
				for p := PID(0); p < 2; p++ {
					if err := f.Start(p, kind); err != nil {
						t.Error(err)
						return
					}
				}
				for p := PID(0); p < 2; p++ {
					if got, want := f.Frame(p), pristine(kind, base+Addr(p)); !reflect.DeepEqual(got, want) {
						t.Errorf("owner %d round %d: p%d started as %+v, want %+v", base, r, p, got, want)
						return
					}
					f.Frame(p).Next(Result{}) // mark it as this owner's
				}
				for p := PID(0); p < 2; p++ {
					if reflect.DeepEqual(f.Frame(p), pristine(kind, base+Addr(p))) {
						t.Errorf("owner %d round %d: another owner rebuilt p%d's frame", base, r, p)
						return
					}
				}
				f.DropAll()
			}
		}(Addr(100 * g))
	}
	wg.Wait()
}

// pristine is the frame switchInstance builds for kind at address a.
func pristine(kind CallKind, a Addr) Resumable {
	if kind == CallSignal {
		return &incFrame{a: a, times: 1}
	}
	return &readFrame{addr: a}
}
