package memsim

import "testing"

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
