package memsim

import (
	"fmt"
)

// Program is the body of one procedure call (e.g. one invocation of Poll or
// Signal). It runs as a sequential thread of control and performs shared
// memory accesses through p. It must be deterministic: given the same
// sequence of access results it must issue the same accesses and return the
// same value. The returned Value is the call's response (0/1 for Boolean
// procedures).
type Program func(p *Proc) Value

// Proc is the handle through which a program accesses shared memory. Every
// method is a scheduling point: the calling goroutine blocks until the
// controller grants the step.
type Proc struct {
	pid   PID
	req   chan Access
	res   chan Result
	abort chan struct{}
}

// ID returns the process ID executing the current call.
func (p *Proc) ID() PID { return p.pid }

type procAborted struct{}

// access submits one atomic operation and waits for the controller.
func (p *Proc) access(acc Access) Result {
	select {
	case p.req <- acc:
	case <-p.abort:
		panic(procAborted{})
	}
	select {
	case r := <-p.res:
		return r
	case <-p.abort:
		panic(procAborted{})
	}
}

// Read returns the value of a.
func (p *Proc) Read(a Addr) Value { return p.access(Access{Op: OpRead, Addr: a}).Val }

// Write stores v into a.
func (p *Proc) Write(a Addr, v Value) { p.access(Access{Op: OpWrite, Addr: a, Arg1: v}) }

// CAS atomically replaces the value of a with new if it equals old,
// reporting whether it did.
func (p *Proc) CAS(a Addr, old, new Value) bool {
	return p.access(Access{Op: OpCAS, Addr: a, Arg1: old, Arg2: new}).OK
}

// LL load-links a and returns its value.
func (p *Proc) LL(a Addr) Value { return p.access(Access{Op: OpLL, Addr: a}).Val }

// SC store-conditionally writes v to a, reporting success.
func (p *Proc) SC(a Addr, v Value) bool {
	return p.access(Access{Op: OpSC, Addr: a, Arg1: v}).OK
}

// FetchAdd atomically adds delta to a and returns the previous value.
func (p *Proc) FetchAdd(a Addr, delta Value) Value {
	return p.access(Access{Op: OpFetchAdd, Addr: a, Arg1: delta}).Val
}

// FetchStore atomically stores v into a and returns the previous value.
func (p *Proc) FetchStore(a Addr, v Value) Value {
	return p.access(Access{Op: OpFetchStore, Addr: a, Arg1: v}).Val
}

// TestAndSet atomically sets a to 1 and reports whether it was 0 before.
func (p *Proc) TestAndSet(a Addr) bool {
	return p.access(Access{Op: OpTestAndSet, Addr: a}).OK
}

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
// Calls run on one of two engine tiers. Resumable programs
// (StartResumable, and every Instance procedure) are dispatched inline: advancing a process is a plain method call with zero
// goroutines and zero channel operations. Blocking Programs (StartCall)
// keep working through the FromBlocking adapter, which relays scheduling
// points over channels from a pooled handoff goroutine. Both tiers produce
// identical traces for identical schedules.
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
	pool    *WorkerPool
}

// NewController returns a controller over m with no active calls. Event
// retention is on: switch it off with RetainEvents(false) when attached
// sinks are the only consumers.
func NewController(m *Machine) *Controller {
	return &Controller{
		mach:  m,
		procs: make([]procState, m.N()),
	}
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

// Pool returns the controller's worker pool for blocking-program adapters,
// creating it on first use. The pool is sized to the machine's process
// count — at most one call per process is ever active.
func (c *Controller) Pool() *WorkerPool {
	if c.pool == nil {
		c.pool = NewWorkerPool(len(c.procs))
	}
	return c.pool
}

// StartCall begins an invocation of prog (named name, e.g. "Poll") on
// process pid and runs the process until it either submits its first
// shared-memory access or completes. It returns an error if pid already has
// an active call. The program runs on a pooled handoff goroutine; native
// state machines go through StartResumable instead and need no goroutine
// at all.
func (c *Controller) StartCall(pid PID, name string, prog Program) error {
	if err := c.checkIdle(pid); err != nil {
		return err
	}
	return c.StartResumable(pid, name, c.Pool().FromBlocking(pid, prog))
}

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
// has an active call. This is the engine's fast path: the frame is
// dispatched inline on the caller's stack.
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
	if a, ok := st.frame.(frameAborter); ok {
		a.abortFrame()
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

// Abort kills pid's active call, if any, without applying its pending
// access. The process returns to idle; no call-end event is recorded. Abort
// is a runtime cleanup facility behind Close and Reset (the logical
// "erasure" of the lower bound rewinds an execution with Reset and
// re-applies the schedule without the erased processes' actions). A native
// resumable frame is simply dropped; a blocking adapter additionally
// unwinds its parked program so the handoff goroutine re-pools.
func (c *Controller) Abort(pid PID) {
	st := &c.procs[pid]
	if st.phase == phaseIdle {
		return
	}
	if st.phase == phasePending {
		if a, ok := st.frame.(frameAborter); ok {
			a.abortFrame()
		}
	}
	// A phaseDone frame holds no goroutine: the blocking adapter's worker
	// re-pooled itself after delivering the return value.
	st.phase = phaseIdle
	st.frame = nil
}

// Reset rewinds the controller to its state before the first call: every
// active call is aborted (blocking adapters re-pool), every process is idle
// with no calls started, and the trace is empty with sequence numbers
// restarting at 0. Event storage and the worker pool are kept for the
// rewound run, as are attached sinks and the retention setting; slices
// Events returned before the reset are overwritten by later events.
func (c *Controller) Reset() {
	for pid := range c.procs {
		c.Abort(PID(pid))
	}
	clear(c.procs)
	c.events = c.events[:0]
	c.seq = 0
}

// Close aborts all active calls and terminates the blocking-adapter worker
// pool. The controller must not be used afterward.
func (c *Controller) Close() {
	for pid := range c.procs {
		c.Abort(PID(pid))
	}
	if c.pool != nil {
		c.pool.Close()
	}
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
