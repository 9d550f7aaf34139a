package memsim

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestStartResumableSpawnsNoGoroutines: dispatching frames starts no
// goroutine, however many calls run.
func TestStartResumableSpawnsNoGoroutines(t *testing.T) {
	probe := leakcheck.Run(func() {
		m := NewMachine(2)
		a := m.Alloc(NoOwner, "x", 1, 7)
		ctl := NewController(m)
		for call := 0; call < 100; call++ {
			if err := ctl.StartResumable(0, "read", &readFrame{addr: a}); err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.Step(0); err != nil {
				t.Fatal(err)
			}
			ret, err := ctl.FinishCall(0)
			if err != nil {
				t.Fatal(err)
			}
			if ret != 7 {
				t.Fatalf("ret = %d, want 7", ret)
			}
		}
	})
	if n, stacks := probe.Alive(); n != 0 {
		t.Fatalf("frame dispatch left %d goroutines running:\n%s", n, stacks)
	}
}

// readFrame is a minimal test frame: read one address, return the value.
type readFrame struct {
	addr Addr
	pc   uint8
	ret  Value
}

func (f *readFrame) Next(prev Result) (Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return AccRead(f.addr), true
	}
	f.ret = prev.Val
	return Access{}, false
}

func (f *readFrame) Return() Value { return f.ret }

func (f *readFrame) CloneInto(dst Resumable) Resumable { return CopyFrame(f, dst) }

// TestCloneResumableIndependence: a cloned frame resumes independently of
// the original.
func TestCloneResumableIndependence(t *testing.T) {
	f := &readFrame{addr: 3}
	if _, ok := f.Next(Result{}); !ok {
		t.Fatal("frame should have a pending access")
	}
	c := f.CloneInto(nil).(*readFrame)
	if _, ok := f.Next(Result{Val: 10}); ok {
		t.Fatal("original should have completed")
	}
	if f.Return() != 10 {
		t.Fatalf("original returned %d, want 10", f.Return())
	}
	if _, ok := c.Next(Result{Val: 20}); ok {
		t.Fatal("clone should complete independently")
	}
	if c.Return() != 20 {
		t.Fatalf("clone returned %d, want 20 (shared state with original?)", c.Return())
	}
}

// TestMachineUndoLog: ApplyLogged + Revert restores the machine
// bit-for-bit, including LL/SC reservation state.
func TestMachineUndoLog(t *testing.T) {
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 5)
	var undos []Undo
	apply := func(pid PID, acc Access) Result {
		res, u := m.ApplyLogged(pid, acc)
		undos = append(undos, u)
		return res
	}
	apply(0, AccLL(a))
	apply(0, AccWrite(a, 9)) // invalidates p0's reservation
	apply(1, AccFetchAdd(a, 1))
	if got := m.Load(a); got != 10 {
		t.Fatalf("value = %d, want 10", got)
	}
	if _, ok := m.LLState(0); ok {
		t.Fatal("reservation should be stale after the write")
	}
	// Revert the write and the FAA: value and reservation return.
	for i := len(undos) - 1; i >= 1; i-- {
		m.Revert(undos[i])
	}
	if got := m.Load(a); got != 5 {
		t.Fatalf("after revert: value = %d, want 5", got)
	}
	if addr, ok := m.LLState(0); !ok || addr != a {
		t.Fatal("reservation should be live again after revert")
	}
	if res := apply(0, AccSC(a, 77)); !res.OK {
		t.Fatal("SC should succeed on the restored reservation")
	}
	if got := m.Load(a); got != 77 {
		t.Fatalf("after SC: value = %d, want 77", got)
	}
}

// TestControllerResetRewindsCalls: Reset drops every active call, idles
// every process with its call count rewound, and restarts the trace at
// sequence number 0, round after round.
func TestControllerResetRewindsCalls(t *testing.T) {
	m := NewMachine(4)
	a := m.Alloc(NoOwner, "spin", 1, 0)
	ctl := NewController(m)
	for round := 0; round < 50; round++ {
		for pid := 0; pid < 4; pid++ {
			if err := ctl.StartResumable(PID(pid), "spin", &spinFrame{a: a}); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if _, err := ctl.Step(PID(pid)); err != nil {
				t.Fatal(err)
			}
		}
		if ev := ctl.Events()[0]; ev.Seq != 0 || ev.Kind != EvCallStart || ev.CallSeq != 0 {
			t.Fatalf("round %d: first event after reset = %+v", round, ev)
		}
		ctl.Reset()
		for pid := 0; pid < 4; pid++ {
			if !ctl.Idle(PID(pid)) || ctl.Calls(PID(pid)) != 0 {
				t.Fatalf("p%d not rewound by reset", pid)
			}
			if _, ok := ctl.Pending(PID(pid)); ok {
				t.Fatalf("p%d kept its pending access across reset", pid)
			}
		}
		if len(ctl.Events()) != 0 {
			t.Fatal("reset kept the trace")
		}
	}
}
