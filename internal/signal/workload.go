package signal

import (
	"fmt"
	"slices"
	"sync"

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
// harness. Each call starts from a copy of its (pid, kind) frame template
// in the process's retained frame storage. Observe must see every
// event of the run (attach it as the harness sink): it counts the applied
// accesses SignalAfter waits for. A Workload is bound to a single run;
// Release returns it, frame storage included, to the pool NewWorkload
// draws from once the run is over. The calls' return values are in the
// run's event stream: attach a Returns to collect them.
type Workload struct {
	alg    Algorithm
	policy Policy
	kind   memsim.CallKind // the waiters' call

	frames memsim.Frames

	procs    []proc
	steps    int
	signaled bool
	err      error
}

// workloadPool recycles workloads and their storage (see Release).
var workloadPool = sync.Pool{New: func() any { return new(Workload) }}

// proc is one process's progress through the policy.
type proc struct {
	waiter, signaler bool
	polls            int
	waitDone         bool // the waiter makes no further call
	signalStarted    bool
	signalDone       bool
}

var _ harness.Workload = (*Workload)(nil)

// NewWorkload returns the workload of alg for n processes under p. Every
// PID p lists must lie in [0, n).
func NewWorkload(alg Algorithm, n int, p Policy) *Workload {
	w := workloadPool.Get().(*Workload)
	procs := slices.Grow(w.procs[:0], n)[:n]
	clear(procs)
	*w = Workload{alg: alg, policy: p, kind: memsim.CallPoll, frames: w.frames, procs: procs}
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
	w.frames.Reset(inst, w.N())
	return nil
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

// Next implements harness.Workload: the call starts from a copy of the
// (pid, kind) template in pid's retained frame storage. A procedure the
// algorithm does not provide ends the run's calls; Err reports it.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	kind, ok := w.nextKind(pid)
	if !ok {
		return "", nil, false
	}
	if err := w.frames.Start(pid, kind); err != nil {
		w.err = err
		return "", nil, false
	}
	return kind.String(), w.frames.Frame(pid), true
}

// Done implements harness.Workload.
func (w *Workload) Done(pid memsim.PID, ret memsim.Value) {
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

// Release ends the workload once its run is over and returns it to the
// pool NewWorkload draws from. Nothing of the workload may be used
// afterwards.
func (w *Workload) Release() {
	w.frames.Reset(nil, 0)
	w.alg, w.policy = Algorithm{}, Policy{}
	workloadPool.Put(w)
}

// Signaled reports whether some Signal call completed.
func (w *Workload) Signaled() bool { return w.signaled }

// Finished reports whether pid has completed every call the policy gives
// it.
func (w *Workload) Finished(pid memsim.PID) bool {
	pr := w.procs[pid]
	return (!pr.waiter || pr.waitDone) && (!pr.signaler || pr.signalDone)
}

// Returns collects each process's call return values, in completion
// order, from a run's event stream: attach Observe as the run's sink (or
// call it from one). Processes with no completed call have no entry.
type Returns map[memsim.PID][]memsim.Value

// Observe records the return value of each completed call.
func (r Returns) Observe(ev memsim.Event) {
	if ev.Kind == memsim.EvCallEnd {
		r[ev.PID] = append(r[ev.PID], ev.Ret)
	}
}
