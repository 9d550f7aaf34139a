package memsim

import (
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to return to base,
// failing the test with a full stack dump if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// spinProgram blocks forever on a (the worst case for abort cleanup).
func spinProgram(a Addr) Program {
	return func(p *Proc) Value {
		for p.Read(a) == 0 {
		}
		return 0
	}
}

// TestNoGoroutineLeakAfterAbort: aborting mid-call blocking programs and
// closing the controller returns the goroutine count to its baseline —
// the abort/interrupt cleanup path of the engine.
func TestNoGoroutineLeakAfterAbort(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(4)
	a := m.Alloc(NoOwner, "spin", 1, 0)
	ctl := NewController(m)
	for pid := 0; pid < 4; pid++ {
		if err := ctl.StartCall(PID(pid), "spin", spinProgram(a)); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Step(PID(pid)); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Abort(0)
	ctl.Abort(1)
	ctl.Close() // aborts the rest and closes the worker pool
	settleGoroutines(t, base)
}

// TestWorkerPoolReusesGoroutines: a long sequence of blocking calls on the
// same controller runs on a bounded set of pooled handoff goroutines
// instead of one goroutine per call.
func TestWorkerPoolReusesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 1)
	ctl := NewController(m)
	prog := func(p *Proc) Value { return p.Read(a) }
	for call := 0; call < 200; call++ {
		for pid := 0; pid < 2; pid++ {
			if err := ctl.StartCall(PID(pid), "read", prog); err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.Step(PID(pid)); err != nil {
				t.Fatal(err)
			}
			if _, err := ctl.FinishCall(PID(pid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// While the controller is open, at most the pool's parked workers (one
	// per process here) plus scheduling slack may be alive.
	if got := runtime.NumGoroutine(); got > base+4 {
		t.Fatalf("worker pool not reusing goroutines: %d alive after 400 calls (baseline %d)", got, base)
	}
	ctl.Close()
	settleGoroutines(t, base)
}

// TestStartResumableSpawnsNoGoroutines: the resumable tier never touches
// the goroutine count, even across many calls.
func TestStartResumableSpawnsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 7)
	ctl := NewController(m)
	defer ctl.Close()
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
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("resumable dispatch changed goroutine count: %d -> %d", base, got)
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

// TestBlockingAndResumableInterleave: the two tiers coexist on one
// controller — a blocking call and a resumable call interleave correctly.
func TestBlockingAndResumableInterleave(t *testing.T) {
	m := NewMachine(2)
	a := m.Alloc(NoOwner, "x", 1, 0)
	ctl := NewController(m)
	defer ctl.Close()
	if err := ctl.StartCall(0, "write", func(p *Proc) Value {
		p.Write(a, 41)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.StartResumable(1, "read", &readFrame{addr: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Step(0); err != nil { // apply the write
		t.Fatal(err)
	}
	if _, err := ctl.Step(1); err != nil { // apply the read
		t.Fatal(err)
	}
	if _, err := ctl.FinishCall(0); err != nil {
		t.Fatal(err)
	}
	ret, err := ctl.FinishCall(1)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 41 {
		t.Fatalf("resumable read returned %d, want 41", ret)
	}
}

// TestCloneResumableIndependence: a cloned frame resumes independently of
// the original.
func TestCloneResumableIndependence(t *testing.T) {
	f := &readFrame{addr: 3}
	if _, ok := f.Next(Result{}); !ok {
		t.Fatal("frame should have a pending access")
	}
	c := CloneResumable(f).(*readFrame)
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

// TestControllerResetRepoolsBlockingCalls: Reset aborts parked blocking
// calls so their handoff goroutines re-pool, idles every process with its
// call count rewound, and restarts the trace at sequence number 0.
func TestControllerResetRepoolsBlockingCalls(t *testing.T) {
	base := runtime.NumGoroutine()
	m := NewMachine(4)
	a := m.Alloc(NoOwner, "spin", 1, 0)
	ctl := NewController(m)
	for round := 0; round < 50; round++ {
		for pid := 0; pid < 4; pid++ {
			if err := ctl.StartCall(PID(pid), "spin", spinProgram(a)); err != nil {
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
		// Aborted workers re-pool (or exit past the pool's capacity of
		// one per process) asynchronously; parked programs would not.
		settleGoroutines(t, base+4)
		for pid := 0; pid < 4; pid++ {
			if !ctl.Idle(PID(pid)) || ctl.Calls(PID(pid)) != 0 {
				t.Fatalf("p%d not rewound by reset", pid)
			}
		}
		if len(ctl.Events()) != 0 {
			t.Fatal("reset kept the trace")
		}
	}
	ctl.Close()
	settleGoroutines(t, base)
}
