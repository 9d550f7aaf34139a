package signal

import (
	"fmt"
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
// Release returns its storage for later workloads once the run is over.
type Workload struct {
	alg    Algorithm
	policy Policy
	kind   memsim.CallKind // the waiters' call

	tmpl   *memsim.FrameTemplates
	frames memsim.FrameSet

	procs    []proc
	steps    int
	signaled bool
	// log holds every completed call's return value in completion order
	// (nil after Release); returns is built from it on demand (nil until
	// then).
	log     *returnLog
	returns map[memsim.PID][]memsim.Value
	err     error
}

// returnLog is the completed calls' (pid, value) pairs in completion
// order. Its storage is recycled through logPool.
type returnLog struct{ entries []pidValue }

// pidValue is one completed call's return value and process.
type pidValue struct {
	pid memsim.PID
	val memsim.Value
}

// logPool recycles return logs across workloads (see Release).
var logPool = sync.Pool{New: func() any { return new(returnLog) }}

// proc is one process's progress through the policy.
type proc struct {
	waiter, signaler bool
	calls            int // completed calls
	polls            int
	waitDone         bool // the waiter makes no further call
	signalStarted    bool
	signalDone       bool
}

var _ harness.Workload = (*Workload)(nil)

// NewWorkload returns the workload of alg for n processes under p. Every
// PID p lists must lie in [0, n).
func NewWorkload(alg Algorithm, n int, p Policy) *Workload {
	w := &Workload{
		alg:    alg,
		policy: p,
		kind:   memsim.CallPoll,
		procs:  make([]proc, n),
		log:    logPool.Get().(*returnLog),
	}
	w.log.entries = w.log.entries[:0]
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
	w.tmpl = memsim.NewFrameTemplates(inst, w.N())
	w.frames = memsim.NewFrameSet(w.N())
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
	if err := w.frames.Start(w.tmpl, pid, kind); err != nil {
		w.err = err
		return "", nil, false
	}
	return kind.String(), w.frames.Frame(pid), true
}

// Done implements harness.Workload.
func (w *Workload) Done(pid memsim.PID, ret memsim.Value) {
	w.log.entries = append(w.log.entries, pidValue{pid, ret})
	w.returns = nil
	pr := &w.procs[pid]
	pr.calls++
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
// in order. Processes with no completed call have no entry. The slices
// share one backing array but are capped at their own length, so
// appending to one never overwrites another.
func (w *Workload) Returns() map[memsim.PID][]memsim.Value {
	if w.returns != nil {
		return w.returns
	}
	w.returns = make(map[memsim.PID][]memsim.Value, len(w.procs))
	all := make([]memsim.Value, len(w.log.entries))
	off := 0
	for pid, pr := range w.procs {
		if pr.calls > 0 {
			w.returns[memsim.PID(pid)] = all[off : off : off+pr.calls]
			off += pr.calls
		}
	}
	for _, r := range w.log.entries {
		w.returns[r.pid] = append(w.returns[r.pid], r.val)
	}
	return w.returns
}

// Release ends the workload once its run is over and returns the return
// log's storage for reuse by later workloads. A map Returns built before
// stays valid, since it copies the values out of the log; nothing else
// of the workload may be used afterwards.
func (w *Workload) Release() {
	logPool.Put(w.log)
	w.log = nil
}

// Signaled reports whether some Signal call completed.
func (w *Workload) Signaled() bool { return w.signaled }

// Finished reports whether pid has completed every call the policy gives
// it.
func (w *Workload) Finished(pid memsim.PID) bool {
	pr := w.procs[pid]
	return (!pr.waiter || pr.waitDone) && (!pr.signaler || pr.signalDone)
}
