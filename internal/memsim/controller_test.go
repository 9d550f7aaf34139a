package memsim

import (
	"testing"
)

// incFrame increments a shared word times times (read it, write the value
// plus one) and returns the value of a final read.
type incFrame struct {
	a     Addr
	times int
	done  int
	ret   Value
	pc    uint8
}

func (f *incFrame) Next(prev Result) (Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return AccRead(f.a), true
	case 1: // read result
		if f.done == f.times {
			f.ret = prev.Val
			return Access{}, false
		}
		f.done++
		f.pc = 2
		return AccWrite(f.a, prev.Val+1), true
	default: // written
		f.pc = 1
		return AccRead(f.a), true
	}
}

func (f *incFrame) Return() Value { return f.ret }

func (f *incFrame) CloneInto(dst Resumable) Resumable { return CopyFrame(f, dst) }

// testProgram increments a shared word twice and returns its final value.
func testProgram(a Addr) Resumable { return &incFrame{a: a, times: 2} }

// spinFrame reads a until it is nonzero.
type spinFrame struct {
	a       Addr
	started bool
}

func (f *spinFrame) Next(prev Result) (Access, bool) {
	if f.started && prev.Val != 0 {
		return Access{}, false
	}
	f.started = true
	return AccRead(f.a), true
}

func (f *spinFrame) Return() Value { return 0 }

func (f *spinFrame) CloneInto(dst Resumable) Resumable { return CopyFrame(f, dst) }

func TestControllerStepGranularity(t *testing.T) {
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 0)
	ctl := NewController(m)

	if err := ctl.StartResumable(0, "inc", testProgram(a)); err != nil {
		t.Fatal(err)
	}
	acc, ok := ctl.Pending(0)
	if !ok || acc.Op != OpRead || acc.Addr != a {
		t.Fatalf("pending = %v %v, want read of a", acc, ok)
	}
	steps := 0
	for {
		if ret, done := ctl.CallEnded(0); done {
			if ret != 2 {
				t.Fatalf("return = %d, want 2", ret)
			}
			break
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 10 {
			t.Fatal("call did not finish")
		}
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if _, err := ctl.FinishCall(0); err != nil {
		t.Fatal(err)
	}
	if !ctl.Idle(0) {
		t.Fatal("process should be idle after FinishCall")
	}
}

func TestControllerInterleaving(t *testing.T) {
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 0)
	ctl := NewController(m)

	// Interleave two increment programs to lose an update: both read 0,
	// both write 1.
	if err := ctl.StartResumable(0, "inc", &incFrame{a: a, times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.StartResumable(1, "inc", &incFrame{a: a, times: 1}); err != nil {
		t.Fatal(err)
	}
	mustStep := func(pid PID) {
		t.Helper()
		if _, err := ctl.Step(pid); err != nil {
			t.Fatal(err)
		}
	}
	mustStep(0) // p0 reads 0
	mustStep(1) // p1 reads 0
	mustStep(0) // p0 writes 1
	mustStep(1) // p1 writes 1 (lost update)
	if m.Load(a) != 1 {
		t.Fatalf("Load = %d, want 1 (lost update)", m.Load(a))
	}
}

func TestControllerDoubleStartFails(t *testing.T) {
	m := NewMachine(1)
	a := m.Alloc(NoOwner, "x", 1, 0)
	ctl := NewController(m)
	if err := ctl.StartResumable(0, "p", testProgram(a)); err != nil {
		t.Fatal(err)
	}
	if err := ctl.StartResumable(0, "p", testProgram(a)); err == nil {
		t.Fatal("second StartResumable should fail while a call is active")
	}
}

func TestControllerEvents(t *testing.T) {
	m := NewMachine(1)
	a := m.Alloc(NoOwner, "x", 1, 0)
	ctl := NewController(m)
	if err := ctl.StartResumable(0, "inc", testProgram(a)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, done := ctl.CallEnded(0); done {
			break
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctl.FinishCall(0); err != nil {
		t.Fatal(err)
	}
	evs := ctl.Events()
	if evs[0].Kind != EvCallStart || evs[len(evs)-1].Kind != EvCallEnd {
		t.Fatal("trace should be bracketed by call start/end")
	}
	accesses := 0
	for _, ev := range evs {
		if ev.Kind == EvAccess {
			accesses++
			if ev.Proc != "inc" || ev.PID != 0 {
				t.Fatalf("bad event metadata: %+v", ev)
			}
		}
	}
	if accesses != 5 {
		t.Fatalf("accesses = %d, want 5", accesses)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ev.Seq)
		}
	}
}
