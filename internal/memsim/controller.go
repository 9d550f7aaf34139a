package memsim

import (
	"fmt"
	"sync"
)

// procPhase is the controller's view of one process.
type procPhase uint8

const (
	phaseIdle    procPhase = iota // no active call
	phasePending                  // call active, access waiting to be granted
	phaseDone                     // call finished, return value not yet collected
)

type procState struct {
	phase   procPhase
	frame   Resumable
	pending Access
	ret     Value
	calls   int    // number of calls started
	name    string // current procedure name
}

// EventSink observes each trace event as it is emitted, before control
// returns to the scheduler. Sinks are the streaming counterpart of the
// retained event log: attached cost accumulators and online checkers price
// or verify the execution without the trace ever being materialized. A sink
// must not call back into the Controller.
type EventSink func(Event)

// Controller runs asynchronous processes over a Machine with single-step
// granularity. It exposes exactly the control an adversarial scheduler
// needs: start a procedure call on a process, inspect the process's pending
// access before it is applied, grant one step, and observe call completion.
//
// Every call is a Resumable frame (StartResumable, and every Instance
// procedure), dispatched inline: advancing a process is a plain method
// call on the caller's stack, with no goroutine and no channel operation.
//
// Controller records the full execution trace (accesses and call
// boundaries) by default, for cost models that score after the fact;
// streaming consumers attach EventSinks instead and may switch retention
// off with RetainEvents(false), making the controller's memory O(1) in the
// number of steps.
type Controller struct {
	mach    *Machine
	procs   []procState
	events  []Event
	seq     int
	sinks   []EventSink
	discard bool
}

// controllerPool recycles controllers across deployments (see Release).
var controllerPool = sync.Pool{New: func() any { return new(Controller) }}

// NewController returns a controller over m with no active calls. Event
// retention is on: switch it off with RetainEvents(false) when attached
// sinks are the only consumers. Its storage may come from a released
// controller; nothing of that controller's state is visible through the
// result.
func NewController(m *Machine) *Controller {
	c := controllerPool.Get().(*Controller)
	c.mach = m
	if n := m.N(); cap(c.procs) < n {
		c.procs = make([]procState, n)
	} else {
		c.procs = c.procs[:n]
		clear(c.procs)
	}
	c.events = nil
	c.seq = 0
	c.sinks = c.sinks[:0]
	c.discard = false
	return c
}

// Release returns c's storage for reuse by a later NewController. It does
// not release c's machine. The retained trace is not recycled: a slice
// Events returned stays valid and belongs to whoever took it. Nothing else
// of c may be used afterwards.
func (c *Controller) Release() {
	clear(c.procs) // drop the frames
	clear(c.sinks) // and the sinks' closures
	c.mach, c.events = nil, nil
	controllerPool.Put(c)
}

// Machine returns the underlying shared memory.
func (c *Controller) Machine() *Machine { return c.mach }

// Attach registers a sink that observes every subsequent event.
func (c *Controller) Attach(s EventSink) { c.sinks = append(c.sinks, s) }

// RetainEvents switches trace retention on or off. With retention off,
// Events returns only what was recorded while retention was on; attached
// sinks still observe everything. Switch retention off before the first
// event if the run should retain nothing.
func (c *Controller) RetainEvents(keep bool) { c.discard = !keep }

// Events returns the execution trace recorded so far. The returned slice
// aliases the controller's log; callers must not modify it.
func (c *Controller) Events() []Event { return c.events }

// Idle reports whether pid has no active procedure call.
func (c *Controller) Idle(pid PID) bool { return c.procs[pid].phase == phaseIdle }

// Calls returns how many procedure calls pid has started.
func (c *Controller) Calls(pid PID) int { return c.procs[pid].calls }

// checkIdle returns the error a call start on a busy pid reports.
func (c *Controller) checkIdle(pid PID) error {
	if st := &c.procs[pid]; st.phase != phaseIdle {
		return fmt.Errorf("memsim: process %d already has an active %s call", pid, st.name)
	}
	return nil
}

// StartResumable begins an invocation of the resumable program r (named
// name) on process pid and advances it until it either submits its first
// shared-memory access or completes. It returns an error if pid already
// has an active call.
func (c *Controller) StartResumable(pid PID, name string, r Resumable) error {
	if err := c.checkIdle(pid); err != nil {
		return err
	}
	st := &c.procs[pid]
	st.frame = r
	st.name = name
	callSeq := st.calls
	st.calls++
	c.emit(Event{Kind: EvCallStart, PID: pid, CallSeq: callSeq, Proc: name})
	c.settle(pid, Result{})
	return nil
}

// settle advances pid's frame with the result of its last granted access
// (zero on call start) and updates the phase to its next scheduling point
// or to completion.
func (c *Controller) settle(pid PID, prev Result) {
	st := &c.procs[pid]
	if acc, ok := st.frame.Next(prev); ok {
		st.pending = acc
		st.phase = phasePending
	} else {
		st.ret = st.frame.Return()
		st.phase = phaseDone
	}
}

// Pending returns the access pid will perform on its next step. The second
// result is false if pid has no pending access (idle, or call completed).
func (c *Controller) Pending(pid PID) (Access, bool) {
	st := &c.procs[pid]
	if st.phase != phasePending {
		return Access{}, false
	}
	return st.pending, true
}

// CallEnded reports whether pid's current call has finished, and its return
// value. Collecting the result with FinishCall moves the process back to
// idle.
func (c *Controller) CallEnded(pid PID) (Value, bool) {
	st := &c.procs[pid]
	if st.phase != phaseDone {
		return 0, false
	}
	return st.ret, true
}

// FinishCall collects the return value of pid's completed call and marks
// the process idle. It returns an error if the call has not completed.
func (c *Controller) FinishCall(pid PID) (Value, error) {
	st := &c.procs[pid]
	if st.phase != phaseDone {
		return 0, fmt.Errorf("memsim: process %d call has not completed", pid)
	}
	c.emit(Event{Kind: EvCallEnd, PID: pid, CallSeq: st.calls - 1, Proc: st.name, Ret: st.ret})
	st.phase = phaseIdle
	st.frame = nil
	return st.ret, nil
}

// Step applies pid's pending access to shared memory, records the event,
// and runs the process until its next access or call completion. It returns
// the applied event.
func (c *Controller) Step(pid PID) (Event, error) {
	st := &c.procs[pid]
	if st.phase != phasePending {
		return Event{}, fmt.Errorf("memsim: process %d has no pending access", pid)
	}
	res := c.mach.Apply(pid, st.pending)
	ev := Event{
		Kind:    EvAccess,
		PID:     pid,
		CallSeq: st.calls - 1,
		Proc:    st.name,
		Acc:     st.pending,
		Res:     res,
	}
	c.emit(ev)
	c.settle(pid, res)
	return ev, nil
}

// Crash kills pid's active call at a scheduling point, applying the
// fault's memory effect (LL reservation cleared; module reverted under
// VolOwned) and recording an EvCrash event. The process returns to idle
// with its call count rewound, so restarting the scripted call reuses
// the same CallSeq — the crashed attempt never "counts". Only a process
// with a pending access can crash: idle processes have nothing to lose
// and completed calls have already taken effect.
func (c *Controller) Crash(pid PID, vol Volatility) (Event, error) {
	st := &c.procs[pid]
	if st.phase != phasePending {
		return Event{}, fmt.Errorf("memsim: process %d has no pending access to crash at", pid)
	}
	st.phase = phaseIdle
	st.frame = nil
	st.calls--
	c.mach.Crash(pid, vol)
	ev := Event{Kind: EvCrash, PID: pid, CallSeq: st.calls, Proc: st.name, Fault: FaultCrash}
	c.emit(ev)
	return ev, nil
}

// StepLostCAS applies pid's pending access like Step, but drops the
// response: memory sees the CAS land while the frame observes failure.
// It is only legal for a pending CAS that would succeed — a failing
// CAS's lost response is indistinguishable from ordinary failure. The
// recorded event carries the true memory result plus a FaultLostCAS
// marker, so cost models price the real operation.
func (c *Controller) StepLostCAS(pid PID) (Event, error) {
	st := &c.procs[pid]
	if st.phase != phasePending {
		return Event{}, fmt.Errorf("memsim: process %d has no pending access", pid)
	}
	if st.pending.Op != OpCAS {
		return Event{}, fmt.Errorf("memsim: process %d pending %s is not a CAS", pid, st.pending.Op)
	}
	if c.mach.Load(st.pending.Addr) != st.pending.Arg1 {
		return Event{}, fmt.Errorf("memsim: process %d pending CAS would fail; a lost failure is a plain failure", pid)
	}
	res := c.mach.Apply(pid, st.pending)
	ev := Event{
		Kind:    EvAccess,
		PID:     pid,
		CallSeq: st.calls - 1,
		Proc:    st.name,
		Acc:     st.pending,
		Res:     res,
		Fault:   FaultLostCAS,
	}
	c.emit(ev)
	c.settle(pid, Result{Val: st.pending.Arg1, OK: false})
	return ev, nil
}

// Reset rewinds the controller to its state before the first call: every
// active call is dropped, every process is idle with no calls started,
// and the trace is empty with sequence numbers restarting at 0 (the
// logical "erasure" of the lower bound rewinds an execution this way and
// re-applies the schedule without the erased processes' actions). Event
// storage is kept for the rewound run, as are attached sinks and the
// retention setting; slices Events returned before the reset are
// overwritten by later events.
func (c *Controller) Reset() {
	clear(c.procs)
	c.events = c.events[:0]
	c.seq = 0
}

func (c *Controller) emit(ev Event) {
	ev.Seq = c.seq
	c.seq++
	if !c.discard {
		c.events = append(c.events, ev)
	}
	for _, s := range c.sinks {
		s(ev)
	}
}
