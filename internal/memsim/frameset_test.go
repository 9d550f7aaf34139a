package memsim

import "testing"

// readInstance mints a readFrame of address pid for Poll and counts how
// often it is asked; every other kind is unsupported.
type readInstance struct{ minted int }

func (in *readInstance) Program(PID, CallKind) (Program, error) { return nil, ErrNoProgram }

func (in *readInstance) ResumableProgram(pid PID, kind CallKind) (Resumable, error) {
	if kind != CallPoll {
		return nil, ErrNoProgram
	}
	in.minted++
	return &readFrame{addr: Addr(pid)}, nil
}

// TestFrameSetRecyclesStorage: a call start copies the (pid, kind)
// template into the slot's retained storage, a drop only idles the slot,
// and copies between sets reuse the destination's storage and never alias
// the source's frames. Once warm, none of it allocates.
func TestFrameSetRecyclesStorage(t *testing.T) {
	in := &readInstance{}
	tmpl := NewFrameTemplates(in, 2)
	eng, snap := NewFrameSet(2), NewFrameSet(2)

	if err := eng.Start(tmpl, 1, CallSignal); err == nil {
		t.Fatal("unsupported kind started")
	}
	if err := eng.Start(tmpl, 1, CallPoll); err != nil {
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
	if err := eng.Start(tmpl, 1, CallPoll); err != nil {
		t.Fatal(err)
	}
	if eng.Frame(1) != first {
		t.Fatal("start did not reuse the slot's storage")
	}
	if f := first.(*readFrame); *f != (readFrame{addr: 1}) {
		t.Fatalf("restarted frame = %+v, want pristine", *f)
	}
	if in.minted != 1 {
		t.Fatalf("ResumableProgram minted %d frames, want 1 template", in.minted)
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
		if err := eng.Start(tmpl, 1, CallPoll); err != nil {
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
