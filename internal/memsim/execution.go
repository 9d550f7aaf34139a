package memsim

import (
	"errors"
	"fmt"
	"sync"
)

// CallKind names the procedures of a signaling-problem instance for the
// purpose of recorded, replayable schedules.
type CallKind uint8

// The replayable call kinds.
const (
	CallPoll CallKind = iota + 1
	CallSignal
	CallWait
)

// String returns the procedure name of the call kind.
func (k CallKind) String() string {
	switch k {
	case CallPoll:
		return "Poll"
	case CallSignal:
		return "Signal"
	case CallWait:
		return "Wait"
	default:
		return fmt.Sprintf("call(%d)", uint8(k))
	}
}

// ErrNoProgram is returned by Instance implementations for unsupported
// procedures.
var ErrNoProgram = errors.New("memsim: no program for this call kind")

// ActionKind classifies schedule actions.
type ActionKind uint8

// Schedule action kinds: begin a procedure call, apply one step, collect a
// completed call's result, crash the process at its pending access, and
// apply a pending CAS while dropping its response.
const (
	ActStart ActionKind = iota + 1
	ActStep
	ActFinish
	ActCrash
	ActLostCAS
)

// Action is one deterministic scheduling decision. A sequence of actions,
// together with a deterministic instance, fully determines an execution —
// the replayability property the lower-bound construction depends on.
// Fault actions carry their own parameters (Vol for ActCrash), so a
// fault schedule replays without out-of-band policy state.
type Action struct {
	Kind ActionKind
	PID  PID
	Call CallKind   // for ActStart
	Vol  Volatility // for ActCrash
}

// Instance is a deployed algorithm: its shared variables have been
// allocated on a machine and its procedures can be invoked by any process.
// Implementations must be deterministic and must allocate their variables
// in a deterministic order so that executions can be replayed on a fresh
// machine.
//
// An instance holds nothing but what deployment fixed: the addresses of
// its shared variables and constants such as n. Every call's state lives
// in its frame and all shared state in machine words, never in the
// instance. That is what lets Execution.Reset keep the instance when it
// rewinds the machine: the rewound run sees the same instance a fresh
// deployment would have built.
type Instance interface {
	// ProgramInto returns one invocation of the given procedure by pid as
	// a resumable frame in its pristine state, built in dst's storage
	// when dst is a frame of the returned type and fresh otherwise (nil
	// included). It returns an error, leaving dst as it was, if the
	// procedure is not supported (e.g. Wait on a polling-only
	// algorithm). dst must be a frame the caller owns exclusively and
	// no longer runs; whatever it held, including sub-frame and buffer
	// storage, is overwritten or set aside for reuse, never read as state.
	//
	// On a deployed instance the result must be a pure function of
	// (pid, kind): every call returns a frame in the same state,
	// whatever dst held, whatever the machine holds and however many
	// frames were built before. The engines rely on this: they start
	// every call in the slot's retained storage (FrameSet.Start), and
	// they never snapshot the instance.
	ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error)
}

// ResumableInstance is an Instance that also mints fresh frames with
// ResumableProgram(pid, kind), the same as ProgramInto(nil, pid, kind).
// Every algorithm's instance implements it; the engines and runners call
// ProgramInto.
type ResumableInstance interface {
	Instance
	ResumableProgram(pid PID, kind CallKind) (Resumable, error)
}

// Factory builds a fresh instance of an algorithm for n processes on
// machine m, allocating all shared variables. It must be deterministic.
type Factory func(m *Machine, n int) (Instance, error)

// Execution binds a machine, controller and instance and keeps the action
// log that makes the run replayable. Each call is built by the instance
// in per-process storage that outlives the call (Frames), so a long run
// (or a run rewound with Reset and re-applied) allocates a frame only
// when a process starts a call of another frame type than its last.
//
// An execution's storage outlives its deployment too: Release returns the
// machine, the controller, the frame slots and the action log's capacity
// to pools that later deployments draw from.
type Execution struct {
	mach    *Machine
	ctl     *Controller
	inst    Instance
	n       int
	actions []Action
	started bool // frames is set up for inst
	frames  Frames
}

// executionPool recycles executions across deployments (see Release).
var executionPool = sync.Pool{New: func() any { return new(Execution) }}

// NewExecution deploys factory on a fresh machine for n processes.
func NewExecution(factory Factory, n int) (*Execution, error) {
	m := NewMachine(n)
	inst, err := factory(m, n)
	if err != nil {
		m.Release()
		return nil, fmt.Errorf("deploy instance: %w", err)
	}
	e := executionPool.Get().(*Execution)
	e.mach, e.ctl, e.inst, e.n = m, NewController(m), inst, n
	e.actions = e.actions[:0]
	e.started = false
	return e, nil
}

// Release ends the deployment and returns its machine, controller, frame
// storage and action log to pools for later deployments. Neither e nor
// anything it returned may be used afterwards (Machine, Actions, an Owner
// method value), with one exception: a trace taken from Events while
// retention was on is never recycled and stays valid for its holder, as a
// Certificate or a retained harness Result relies on.
func (e *Execution) Release() {
	e.ctl.Release()
	e.mach.Release()
	e.frames.Reset(nil, 0)
	e.mach, e.ctl, e.inst = nil, nil, nil
	executionPool.Put(e)
}

// Reset rewinds the execution to its deployment state, as if the instance
// had just been deployed: the machine's words hold their initial values,
// every call is aborted, and the trace and action log are empty. The
// deployed instance and all storage are kept, which is sound because an
// instance holds only deployment data (see Instance).
// Replaying a schedule onto a reset execution produces exactly the trace
// Replay produces on a fresh deployment.
func (e *Execution) Reset() {
	e.ctl.Reset()
	e.mach.Reset()
	e.actions = e.actions[:0]
	e.frames.DropAll()
}

// N returns the number of processes.
func (e *Execution) N() int { return e.n }

// Machine returns the shared memory.
func (e *Execution) Machine() *Machine { return e.mach }

// Instance returns the deployed algorithm instance.
func (e *Execution) Instance() Instance { return e.inst }

// Events returns the execution trace recorded so far.
func (e *Execution) Events() []Event { return e.ctl.Events() }

// Attach registers a sink that observes every subsequent trace event (see
// Controller.Attach).
func (e *Execution) Attach(s EventSink) { e.ctl.Attach(s) }

// RetainEvents switches trace retention on or off (see
// Controller.RetainEvents). The action log that makes runs replayable is
// unaffected.
func (e *Execution) RetainEvents(keep bool) { e.ctl.RetainEvents(keep) }

// Actions returns the schedule performed so far. The returned slice
// aliases the execution's log: callers must not modify it, and Reset
// overwrites it.
func (e *Execution) Actions() []Action { return e.actions }

// Idle reports whether pid has no active call.
func (e *Execution) Idle(pid PID) bool { return e.ctl.Idle(pid) }

// Calls returns how many procedure calls pid has started.
func (e *Execution) Calls(pid PID) int { return e.ctl.Calls(pid) }

// Pending returns pid's pending access, if any.
func (e *Execution) Pending(pid PID) (Access, bool) { return e.ctl.Pending(pid) }

// CallEnded reports whether pid's current call has finished and its return
// value (without collecting it).
func (e *Execution) CallEnded(pid PID) (Value, bool) { return e.ctl.CallEnded(pid) }

// Start begins a call of the given kind on pid. The call runs inline (no
// goroutine), in the pristine frame the instance builds in pid's retained
// frame storage.
func (e *Execution) Start(pid PID, kind CallKind) error {
	if !e.started {
		e.frames.Reset(e.inst, e.n)
		e.started = true
	}
	// pid's storage holds its in-flight frame while it is busy: refuse
	// before the new call is built over it.
	if err := e.ctl.checkIdle(pid); err != nil {
		return err
	}
	if err := e.frames.Start(pid, kind); err != nil {
		return err
	}
	if err := e.ctl.StartResumable(pid, kind.String(), e.frames.Frame(pid)); err != nil {
		return err
	}
	e.actions = append(e.actions, Action{Kind: ActStart, PID: pid, Call: kind})
	return nil
}

// Step applies pid's pending access.
func (e *Execution) Step(pid PID) (Event, error) {
	ev, err := e.ctl.Step(pid)
	if err != nil {
		return Event{}, err
	}
	e.actions = append(e.actions, Action{Kind: ActStep, PID: pid})
	return ev, nil
}

// Crash kills pid's call at its pending access (see Controller.Crash)
// and logs the fault as a replayable action.
func (e *Execution) Crash(pid PID, vol Volatility) (Event, error) {
	ev, err := e.ctl.Crash(pid, vol)
	if err != nil {
		return Event{}, err
	}
	e.dropFrame(pid)
	e.actions = append(e.actions, Action{Kind: ActCrash, PID: pid, Vol: vol})
	return ev, nil
}

// StepLostCAS applies pid's pending CAS while dropping its response (see
// Controller.StepLostCAS) and logs the fault as a replayable action.
func (e *Execution) StepLostCAS(pid PID) (Event, error) {
	ev, err := e.ctl.StepLostCAS(pid)
	if err != nil {
		return Event{}, err
	}
	e.actions = append(e.actions, Action{Kind: ActLostCAS, PID: pid})
	return ev, nil
}

// Finish collects the return value of pid's completed call.
func (e *Execution) Finish(pid PID) (Value, error) {
	ret, err := e.ctl.FinishCall(pid)
	if err != nil {
		return 0, err
	}
	e.dropFrame(pid)
	e.actions = append(e.actions, Action{Kind: ActFinish, PID: pid})
	return ret, nil
}

// dropFrame idles pid's frame slot after its call ended or crashed; the
// storage waits for pid's next start.
func (e *Execution) dropFrame(pid PID) {
	if e.started {
		e.frames.Drop(pid)
	}
}

// Apply performs one recorded scheduling decision.
func (e *Execution) Apply(a Action) error {
	var err error
	switch a.Kind {
	case ActStart:
		err = e.Start(a.PID, a.Call)
	case ActStep:
		_, err = e.Step(a.PID)
	case ActFinish:
		_, err = e.Finish(a.PID)
	case ActCrash:
		_, err = e.Crash(a.PID, a.Vol)
	case ActLostCAS:
		_, err = e.StepLostCAS(a.PID)
	default:
		err = fmt.Errorf("unknown action kind %d", a.Kind)
	}
	return err
}

// RunCall drives pid's current call to completion (applying every pending
// access in program order with no interleaving) and collects its return
// value. maxSteps guards against non-terminating solo calls; RunCall
// returns an error if the budget is exhausted.
func (e *Execution) RunCall(pid PID, maxSteps int) (Value, error) {
	for steps := 0; ; steps++ {
		if _, done := e.ctl.CallEnded(pid); done {
			return e.Finish(pid)
		}
		if steps >= maxSteps {
			return 0, fmt.Errorf("memsim: process %d call exceeded %d solo steps", pid, maxSteps)
		}
		if _, err := e.Step(pid); err != nil {
			return 0, err
		}
	}
}

// Invoke starts a call of the given kind on pid and runs it solo to
// completion.
func (e *Execution) Invoke(pid PID, kind CallKind, maxSteps int) (Value, error) {
	if err := e.Start(pid, kind); err != nil {
		return 0, err
	}
	return e.RunCall(pid, maxSteps)
}

// Replay deploys a fresh copy of factory and re-applies the given actions.
// Because instances are deterministic, the resulting execution's trace is a
// function of the action sequence alone. Replay returns an error if an
// action is inapplicable (which indicates either nondeterminism in the
// instance or an ill-formed schedule).
func Replay(factory Factory, n int, actions []Action) (*Execution, error) {
	e, err := NewExecution(factory, n)
	if err != nil {
		return nil, err
	}
	for i, a := range actions {
		if err := e.Apply(a); err != nil {
			return nil, fmt.Errorf("replay action %d (%v p%d): %w", i, a.Kind, a.PID, err)
		}
	}
	return e, nil
}
