package mutex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
)

// ErrBudget is returned when a lock run exhausts its step budget. It is the
// harness sentinel: lock, GME and semi-synchronous runs all share it.
var ErrBudget = harness.ErrBudget

// ErrInterrupted is returned when a lock run stops because
// RunConfig.Interrupt fired.
var ErrInterrupted = harness.ErrInterrupted

// RunConfig describes a contended critical-section workload.
type RunConfig struct {
	// Lock is the algorithm under test.
	Lock Algorithm
	// N is the number of competing processes.
	N int
	// Passages is the number of critical-section passages per process.
	Passages int
	// Scheduler orders steps; nil means the harness default, seeded
	// random (seed 1).
	Scheduler sched.Scheduler
	// MaxSteps bounds total shared-memory accesses (default 1e6).
	MaxSteps int
	// Scorers attaches streaming cost models: every event is priced as it
	// is generated and the reports land in RunResult.Reports, in order.
	// This is the single-pass scoring path — with KeepEvents off, a run
	// under any number of models retains no trace at all.
	Scorers []model.Scorer
	// KeepEvents retains the full execution trace in RunResult.Events, so
	// RunResult.Score can price models that were not attached. Without it
	// (and without Scorers) a run is unpriced and retains nothing.
	KeepEvents bool
	// Sink, when non-nil, additionally observes every trace event.
	Sink memsim.EventSink
	// Interrupt, when non-nil, stops the run between steps once it fires.
	Interrupt <-chan struct{}
}

// RunResult is the outcome of a lock workload. The embedded harness result
// carries the trace (if retained), the streaming reports, step counts and
// truncation flags.
type RunResult struct {
	*harness.Result
	// Passages is the number of completed critical sections.
	Passages int
	// MutualExclusion reports whether every passage observed exclusive
	// occupancy (owner check and no lost counter updates).
	MutualExclusion bool
}

// PerPassage returns total RMRs divided by completed passages under cm. It
// is NaN when no passage completed (a truncated run has no meaningful
// per-passage cost — 0 would masquerade as free) or when cm was neither
// attached as a scorer nor batch-scoreable from a retained trace.
func (r *RunResult) PerPassage(cm model.CostModel) float64 {
	rep := r.Score(cm)
	if rep == nil || r.Passages == 0 {
		return math.NaN()
	}
	return float64(rep.Total) / float64(r.Passages)
}

// CSProbe is the shared critical-section instrumentation of the lock
// workloads: a two-step critical section that detects mutual-exclusion
// violations (owner stamp re-read plus an unprotected counter increment),
// with completion accounting and a final lost-update check. Workloads over
// any mutex.Lock (including the semi-synchronous Fischer lock) embed it,
// so the violation-detection logic exists exactly once.
type CSProbe struct {
	lock     Lock
	csOwner  memsim.Addr
	csCount  memsim.Addr
	passages int
	violated bool
}

// DeployProbe allocates the probe's shared words on m and binds the probe
// to the (already deployed) lock under test.
func (pr *CSProbe) DeployProbe(m *memsim.Machine, lock Lock) {
	pr.lock = lock
	pr.csOwner = m.Alloc(memsim.NoOwner, "csOwner", 1, memsim.Nil)
	pr.csCount = m.Alloc(memsim.NoOwner, "csCount", 1, 0)
}

// PassageFrame returns pid's next critical-section passage: the lock's
// acquire section, stamp and re-read the owner word, increment the
// unprotected counter, the release section. It returns 1 if the passage
// observed exclusive occupancy. The passage is built in dst when dst is a
// passage frame, its lock sections in dst's sections, and fresh otherwise.
func (pr *CSProbe) PassageFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable {
	d := memsim.CloneTarget[passageFrame](dst)
	*d = passageFrame{
		pr:  pr,
		pid: pid,
		acq: pr.lock.AcquireFrame(d.acq, pid),
		rel: pr.lock.ReleaseFrame(d.rel, pid),
	}
	return d
}

// passageFrame is the CSProbe passage; see PassageFrame.
type passageFrame struct {
	pr  *CSProbe
	pid memsim.PID
	acq memsim.Resumable
	rel memsim.Resumable
	ok  bool
	pc  uint8
}

func (f *passageFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // enter the acquire section
			f.pc = 1
			if acc, ok := f.acq.Next(memsim.Result{}); ok {
				return acc, true
			}
			f.pc = 2
		case 1: // drive the acquire section
			if acc, ok := f.acq.Next(prev); ok {
				return acc, true
			}
			f.pc = 2
		case 2: // lock held: stamp the owner word
			f.pc = 3
			return memsim.AccWrite(f.pr.csOwner, memsim.Value(f.pid)), true
		case 3: // re-read the stamp
			f.pc = 4
			return memsim.AccRead(f.pr.csOwner), true
		case 4: // exclusive-occupancy verdict; read the counter
			f.ok = prev.Val == memsim.Value(f.pid)
			f.pc = 5
			return memsim.AccRead(f.pr.csCount), true
		case 5: // unprotected increment
			f.pc = 6
			return memsim.AccWrite(f.pr.csCount, prev.Val+1), true
		case 6: // enter the release section
			f.pc = 7
			if acc, ok := f.rel.Next(memsim.Result{}); ok {
				return acc, true
			}
			return memsim.Access{}, false
		case 7: // drive the release section
			if acc, ok := f.rel.Next(prev); ok {
				return acc, true
			}
			return memsim.Access{}, false
		default:
			return memsim.Access{}, false
		}
	}
}

func (f *passageFrame) Return() memsim.Value {
	if f.ok {
		return 1
	}
	return 0
}

// CloneInto implements memsim.Resumable: the lock sub-frames are copied,
// not shared, into dst's sub-frames when the types line up.
func (f *passageFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[passageFrame](dst)
	acq, rel := d.acq, d.rel
	*d = *f
	d.acq = memsim.CloneResumableInto(acq, f.acq)
	d.rel = memsim.CloneResumableInto(rel, f.rel)
	return d
}

// AppendState implements memsim.StateAppender: the lock sub-frames encode
// by content, never by pointer.
func (f *passageFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.pid))
	if f.ok {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	dst = memsim.AppendFrameState(dst, f.acq)
	return memsim.AppendFrameState(dst, f.rel)
}

var _ memsim.StateAppender = (*passageFrame)(nil)

// Done implements harness.Workload's completion accounting.
func (pr *CSProbe) Done(_ memsim.PID, ret memsim.Value) {
	pr.passages++
	if ret == 0 {
		pr.violated = true
	}
}

// Verify implements harness.Verifier: a counter short-fall on a complete
// run means two processes overlapped (lost update).
func (pr *CSProbe) Verify(m *memsim.Machine, truncated bool) {
	if !truncated && m.Load(pr.csCount) != memsim.Value(pr.passages) {
		pr.violated = true
	}
}

// CompletedPassages returns the number of critical sections finished so far.
func (pr *CSProbe) CompletedPassages() int { return pr.passages }

// MutualExclusion reports whether no violation has been observed.
func (pr *CSProbe) MutualExclusion() bool { return !pr.violated }

// Workload is the contended critical-section workload on the generic
// streaming harness: every process repeatedly acquires the lock, runs the
// CSProbe critical section, and releases. Each passage is built in pid's
// retained frame storage, so a run mints at most one passage frame per
// process, not one per passage, and a warm pooled workload none. A
// Workload is bound to a single run; Release returns it, frame storage
// included, to the pool NewWorkload draws from once the run is over.
type Workload struct {
	CSProbe
	alg       Algorithm
	n         int
	remaining []int

	frames memsim.Frames
}

// workloadPool recycles workloads and their storage (see Release).
var workloadPool = sync.Pool{New: func() any { return new(Workload) }}

// passageInstance presents the probe's passages as a memsim.Instance with
// one procedure, passageKind, so that passage frames live in memsim.Frames
// storage like any instance's calls.
type passageInstance struct{ pr *CSProbe }

// passageKind is the call kind of passageInstance's one procedure.
const passageKind memsim.CallKind = 0

// ProgramInto implements memsim.Instance: pid's passage, whatever the
// kind.
func (p passageInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, _ memsim.CallKind) (memsim.Resumable, error) {
	return p.pr.PassageFrame(dst, pid), nil
}

var (
	_ harness.Workload = (*Workload)(nil)
	_ harness.Verifier = (*Workload)(nil)
)

// NewWorkload returns the workload for n processes, each performing the
// given number of passages under alg.
func NewWorkload(alg Algorithm, n, passages int) *Workload {
	w := workloadPool.Get().(*Workload)
	remaining := slices.Grow(w.remaining[:0], n)[:n]
	for i := range remaining {
		remaining[i] = passages
	}
	*w = Workload{alg: alg, n: n, remaining: remaining, frames: w.frames}
	return w
}

// Release ends the workload once its run is over and returns it to the
// pool NewWorkload draws from. Nothing of the workload may be used
// afterwards.
func (w *Workload) Release() {
	w.frames.Reset(nil, 0)
	w.CSProbe, w.alg = CSProbe{}, Algorithm{}
	workloadPool.Put(w)
}

// N implements harness.Workload.
func (w *Workload) N() int { return w.n }

// Deploy implements harness.Workload.
func (w *Workload) Deploy(m *memsim.Machine) error {
	lock, err := w.alg.New(m, w.n)
	if err != nil {
		return fmt.Errorf("deploy lock: %w", err)
	}
	w.DeployProbe(m, lock)
	w.frames.Reset(passageInstance{&w.CSProbe}, w.n)
	return nil
}

// Next implements harness.Workload: the passage is built in pid's
// retained frame storage.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	if w.remaining[pid] <= 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	// passageInstance mints every kind, so Start cannot fail.
	_ = w.frames.Start(pid, passageKind)
	return "passage", w.frames.Frame(pid), true
}

// Run drives the contended workload on the streaming harness, applying
// cfg exactly as given: attached Scorers price every event in a single
// pass, and only KeepEvents retains the trace for after-the-fact scoring.
// Run returns ErrBudget or ErrInterrupted (wrapped) together with a valid
// truncated RunResult.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Lock.New == nil {
		return nil, errors.New("mutex: config requires a lock")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("mutex: need at least 1 process, got %d", cfg.N)
	}
	if cfg.Passages < 1 {
		cfg.Passages = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}

	w := NewWorkload(cfg.Lock, cfg.N, cfg.Passages)
	defer w.Release()
	hres, err := harness.Run(harness.Config{
		Workload:   w,
		Scheduler:  cfg.Scheduler,
		MaxSteps:   cfg.MaxSteps,
		Scorers:    cfg.Scorers,
		KeepEvents: cfg.KeepEvents,
		Sink:       cfg.Sink,
		Interrupt:  cfg.Interrupt,
	})
	if hres == nil {
		return nil, err
	}
	return &RunResult{
		Result:          hres,
		Passages:        w.CompletedPassages(),
		MutualExclusion: w.MutualExclusion(),
	}, err
}
