package signal

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/memsim"
)

// Policy is the call policy of a signaling history.
type Policy struct {
	// Waiters make Poll (with Blocking, Wait) calls until one returns
	// true, a Wait returns, or MaxPolls calls have completed (0: no cap).
	Waiters  []memsim.PID
	Blocking bool
	MaxPolls int
	// Signalers each make one Signal call once SignalAfter accesses have
	// been applied; none means no Signal at all.
	Signalers   []memsim.PID
	SignalAfter int
}

// Workload runs an Algorithm under a Policy on the generic streaming
// harness. Calls start in resumable form, or through the blocking adapter
// when the harness is pinned to its blocking tier. Observe must see every
// event of the run (attach it as the harness sink): it counts the applied
// accesses SignalAfter waits for. A Workload is bound to a single run.
type Workload struct {
	alg    Algorithm
	policy Policy
	kind   memsim.CallKind // the waiters' call

	inst   memsim.Instance
	tmpl   *memsim.FrameTemplates
	frames memsim.FrameSet

	procs    []proc
	steps    int
	signaled bool
	returns  map[memsim.PID][]memsim.Value
	err      error
}

// proc is one process's progress through the policy.
type proc struct {
	waiter, signaler bool
	polls            int
	waitDone         bool // the waiter makes no further call
	signalStarted    bool
	signalDone       bool
}

var _ harness.ResumableWorkload = (*Workload)(nil)

// NewWorkload returns the workload of alg for n processes under p. Every
// PID p lists must lie in [0, n).
func NewWorkload(alg Algorithm, n int, p Policy) *Workload {
	w := &Workload{
		alg:     alg,
		policy:  p,
		kind:    memsim.CallPoll,
		procs:   make([]proc, n),
		returns: make(map[memsim.PID][]memsim.Value, n),
	}
	if p.Blocking {
		w.kind = memsim.CallWait
	}
	for _, pid := range p.Waiters {
		w.procs[pid].waiter = true
	}
	for _, pid := range p.Signalers {
		w.procs[pid].signaler = true
	}
	return w
}

// N implements harness.Workload.
func (w *Workload) N() int { return len(w.procs) }

// Deploy implements harness.Workload.
func (w *Workload) Deploy(m *memsim.Machine) error {
	inst, err := w.alg.New(m, w.N())
	if err != nil {
		return fmt.Errorf("deploy instance: %w", err)
	}
	w.inst = inst
	return nil
}

// CanResume implements harness.ResumableWorkload: every algorithm runs
// in resumable form. It sets up the frame templates and storage the run
// reuses.
func (w *Workload) CanResume() bool {
	w.tmpl = memsim.NewFrameTemplates(w.inst, w.N())
	w.frames = memsim.NewFrameSet(w.N())
	return true
}

// nextKind picks pid's next call: its waiter calls first, then its Signal.
func (w *Workload) nextKind(pid memsim.PID) (memsim.CallKind, bool) {
	pr := &w.procs[pid]
	switch {
	case w.err != nil:
		return 0, false
	case pr.waiter && !pr.waitDone:
		return w.kind, true
	case pr.signaler && !pr.signalStarted && w.steps >= w.policy.SignalAfter:
		pr.signalStarted = true
		return memsim.CallSignal, true
	}
	return 0, false
}

// Next implements harness.Workload: the call's frame runs through the
// blocking adapter (memsim.Blocking). A procedure the algorithm does not
// provide ends the run's calls; Err reports it.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Program, bool) {
	kind, ok := w.nextKind(pid)
	if !ok {
		return "", nil, false
	}
	r, err := w.inst.ResumableProgram(pid, kind)
	if err != nil {
		w.err = err
		return "", nil, false
	}
	return kind.String(), memsim.Blocking(r), true
}

// NextResumable implements harness.ResumableWorkload: the call starts from
// a copy of the (pid, kind) template in pid's retained frame storage.
func (w *Workload) NextResumable(pid memsim.PID) (string, memsim.Resumable, bool) {
	kind, ok := w.nextKind(pid)
	if !ok {
		return "", nil, false
	}
	if err := w.frames.Start(w.tmpl, pid, kind); err != nil {
		w.err = err
		return "", nil, false
	}
	return kind.String(), w.frames.Frame(pid), true
}

// Done implements harness.Workload.
func (w *Workload) Done(pid memsim.PID, ret memsim.Value) {
	w.returns[pid] = append(w.returns[pid], ret)
	pr := &w.procs[pid]
	if pr.signalStarted {
		pr.signalDone, w.signaled = true, true
		return
	}
	pr.polls++
	if w.policy.Blocking || ret != 0 || (w.policy.MaxPolls > 0 && pr.polls >= w.policy.MaxPolls) {
		pr.waitDone = true
	}
}

// Observe counts applied accesses; attach it as the run's event sink.
func (w *Workload) Observe(ev memsim.Event) {
	if ev.Kind == memsim.EvAccess {
		w.steps++
	}
}

// Err returns the error of a call the algorithm could not start, if any.
func (w *Workload) Err() error { return w.err }

// Returns maps each process to the return values of its completed calls,
// in order.
func (w *Workload) Returns() map[memsim.PID][]memsim.Value { return w.returns }

// Signaled reports whether some Signal call completed.
func (w *Workload) Signaled() bool { return w.signaled }

// Finished reports whether pid has completed every call the policy gives
// it.
func (w *Workload) Finished(pid memsim.PID) bool {
	pr := w.procs[pid]
	return (!pr.waiter || pr.waitDone) && (!pr.signaler || pr.signalDone)
}
