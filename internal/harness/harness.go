package harness

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// ErrBudget is returned (wrapped) together with a valid truncated Result
// when a run exhausts its step budget. Callers that intentionally truncate
// histories may ignore it.
var ErrBudget = errors.New("harness: step budget exhausted")

// ErrInterrupted is returned (wrapped) together with a valid truncated
// Result when a run stops because Config.Interrupt fired.
var ErrInterrupted = errors.New("harness: run interrupted")

// Workload is a contended simulated workload: a fixed set of processes,
// each performing a sequence of procedure calls over shared state. The
// harness calls Deploy once, then repeatedly asks Next for each idle
// process's next call and reports every completed call to Done. A Workload
// is bound to a single run and carries that run's accounting; it is not
// reused.
type Workload interface {
	// N is the number of processes.
	N() int
	// Deploy allocates the workload's shared state on m. It is called
	// exactly once, before the first call starts.
	Deploy(m *memsim.Machine) error
	// Next mints the name and program of pid's next procedure call.
	// ok=false means pid has no further work; Next may be called again
	// for the same pid on later rounds (and must keep answering false
	// once the process is done).
	Next(pid memsim.PID) (name string, prog memsim.Program, ok bool)
	// Done observes one completed call's return value — the workload's
	// completion accounting (passages finished, safety verdicts, ...).
	Done(pid memsim.PID, ret memsim.Value)
}

// ResumableWorkload is a Workload that can mint its procedure calls in
// native resumable form (explicit state machines the controller dispatches
// inline, with zero goroutines and zero channel operations). The harness
// asks CanResume once after Deploy; when true, every call starts through
// NextResumable instead of Next. Both forms must issue identical access
// sequences, so the engine tier never changes a trace.
type ResumableWorkload interface {
	Workload
	// CanResume reports whether the deployed workload supports the
	// resumable tier (e.g. the lock under test provides frames).
	CanResume() bool
	// NextResumable mirrors Next, minting a resumable frame instead of a
	// blocking program. It performs the same per-process accounting.
	NextResumable(pid memsim.PID) (name string, r memsim.Resumable, ok bool)
}

// Verifier is implemented by workloads with a final whole-machine check
// (e.g. lost-update detection over a critical-section counter). Verify
// runs after the drive loop, with truncated reporting whether the run was
// cut short by the budget or an interrupt (partial runs cannot be held to
// whole-run invariants).
type Verifier interface {
	Verify(m *memsim.Machine, truncated bool)
}

// Stepper applies one scheduling step among the ready processes.
type Stepper func(ready []memsim.PID) error

// SteppedWorkload is implemented by workloads that impose a scheduling
// discipline beyond free choice among ready processes — e.g. the
// semi-synchronous Δ-deadline runner. Stepper may return nil to keep the
// harness default (pick applies one controller step per round).
type SteppedWorkload interface {
	Stepper(ctl *memsim.Controller, pick sched.Scheduler) Stepper
}

// Config describes one harness run.
type Config struct {
	// Workload is the workload under test (required).
	Workload Workload
	// Scheduler orders the steps; nil means seeded random (seed 1), the
	// historical default of the lock runners.
	Scheduler sched.Scheduler
	// MaxSteps bounds total shared-memory accesses (default 1e6).
	MaxSteps int
	// Scorers attaches streaming cost models: each accumulator prices
	// every event as it is generated and the finished reports land in
	// Result.Reports, in Scorers order. With KeepEvents off this is the
	// single-pass scoring path: no trace is ever materialized.
	Scorers []model.Scorer
	// KeepEvents retains the full execution trace in Result.Events. Off
	// by default: scoring-only workloads attach Scorers instead.
	KeepEvents bool
	// Sink, when non-nil, additionally observes every trace event as it
	// is generated (after any attached scorers).
	Sink memsim.EventSink
	// Interrupt, when non-nil, is polled between steps; once it is
	// closed (or receives), the run stops and returns ErrInterrupted
	// with the truncated Result.
	Interrupt <-chan struct{}
	// ForceBlocking pins the run to the blocking engine tier even when
	// the workload supports resumable dispatch — the A/B knob behind
	// engine-equivalence tests and benchmarks. Traces are identical
	// either way.
	ForceBlocking bool
	// Telemetry, when non-nil, receives call start/completion and
	// budget-exhaustion counters. Write-only: it never influences
	// scheduling and the Result is identical with or without it.
	Telemetry *telemetry.Registry
}

// Result is the outcome of a harness run. Workload-specific verdicts
// (mutual exclusion, session safety, passage counts) live on the workload;
// Result carries what the harness itself owns.
type Result struct {
	// Events is the full execution trace; nil unless Config.KeepEvents.
	Events []memsim.Event
	// Reports are the streaming reports of the attached Config.Scorers,
	// in the same order.
	Reports []*model.Report
	// Calls counts completed procedure calls across all processes.
	Calls int
	// Steps is the number of shared-memory accesses performed.
	Steps int
	// Truncated reports whether the run stopped on the step budget.
	Truncated bool
	// Interrupted reports whether the run stopped on Config.Interrupt.
	Interrupted bool

	ownerFn func(memsim.Addr) memsim.PID
	n       int
	scorers []model.Scorer
}

// Report returns the streaming report whose model name matches name, or
// nil if no such scorer was attached. A CC model's name does not encode
// its knobs; Score matches by model value and has no such ambiguity.
func (r *Result) Report(name string) *model.Report {
	for _, rep := range r.Reports {
		if rep.Model == name {
			return rep
		}
	}
	return nil
}

// Score prices the run under cm. With the trace retained (KeepEvents) it
// is scored in a batch pass; otherwise Score falls back to the streaming
// report of the attached scorer that is exactly this model (value
// equality), and returns nil if there is none.
func (r *Result) Score(cm model.CostModel) *model.Report {
	if r.Events != nil {
		return cm.Score(r.Events, r.ownerFn, r.n)
	}
	for i, s := range r.scorers {
		if scorerIs(s, cm) {
			return r.Reports[i]
		}
	}
	return nil
}

// scorerIs reports whether the attached scorer s is exactly the model cm:
// value equality for comparable model types (every model in this
// repository), name equality as a fallback for custom non-comparable
// scorer types.
func scorerIs(s model.Scorer, cm model.CostModel) bool {
	ts, tc := reflect.TypeOf(s), reflect.TypeOf(cm)
	if ts != tc {
		return false
	}
	if ts.Comparable() {
		return any(s) == any(cm)
	}
	return s.Name() == cm.Name()
}

// OwnerFunc exposes the machine's module-ownership mapping, for callers
// that annotate a retained trace themselves.
func (r *Result) OwnerFunc() func(memsim.Addr) memsim.PID { return r.ownerFn }

// N returns the number of processes in the run.
func (r *Result) N() int { return r.n }

// Run drives cfg.Workload to completion (every process out of work), the
// step budget, or an interrupt — whichever comes first. Attached Scorers
// price every event as it is generated; with KeepEvents set the trace is
// additionally retained. Run returns ErrBudget or ErrInterrupted (wrapped)
// together with a valid truncated Result; all other errors indicate misuse
// or workload bugs and come with a nil Result.
func Run(cfg Config) (*Result, error) {
	w := cfg.Workload
	if w == nil {
		return nil, errors.New("harness: config requires a workload")
	}
	n := w.N()
	if n < 1 {
		return nil, fmt.Errorf("harness: need at least 1 process, got %d", n)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 1_000_000
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewRandom(1)
	}

	m := memsim.NewMachine(n)
	if err := w.Deploy(m); err != nil {
		return nil, err
	}
	ctl := memsim.NewController(m)
	defer ctl.Close()

	// Streaming consumers observe each event as it is emitted; the trace
	// itself is retained only on request.
	ctl.RetainEvents(cfg.KeepEvents)
	owner := m.Owner
	accs := make([]model.Accumulator, len(cfg.Scorers))
	for i, s := range cfg.Scorers {
		accs[i] = s.Begin(n, owner)
	}
	if len(accs) > 0 || cfg.Sink != nil {
		ctl.Attach(func(ev memsim.Event) {
			for _, a := range accs {
				a.Add(ev)
			}
			if cfg.Sink != nil {
				cfg.Sink(ev)
			}
		})
	}

	// Pick the engine tier once: workloads with resumable frames run
	// inline (no goroutines); everything else goes through the pooled
	// blocking adapter.
	var resumable ResumableWorkload
	if rw, ok := w.(ResumableWorkload); ok && !cfg.ForceBlocking && rw.CanResume() {
		resumable = rw
	}
	// The telemetry counters no-op on a nil registry (nil handles).
	started := cfg.Telemetry.Counter("repro_harness_calls_started_total")
	completed := cfg.Telemetry.Counter("repro_harness_calls_completed_total")
	exhausted := cfg.Telemetry.Counter("repro_harness_budget_exhausted_total")
	start := func(pid memsim.PID) error {
		if resumable != nil {
			if name, r, ok := resumable.NextResumable(pid); ok {
				if err := ctl.StartResumable(pid, name, r); err != nil {
					return err
				}
				started.Inc(int(pid))
			}
			return nil
		}
		if name, prog, ok := w.Next(pid); ok {
			if err := ctl.StartCall(pid, name, prog); err != nil {
				return err
			}
			started.Inc(int(pid))
		}
		return nil
	}

	step := func(ready []memsim.PID) error {
		_, err := ctl.Step(cfg.Scheduler.Next(ready))
		return err
	}
	if fs, ok := cfg.Scheduler.(sched.FaultScheduler); ok {
		// A fault-aware scheduler may crash the chosen process or drop its
		// CAS response instead of stepping it. The crashed call vanishes
		// without a Done report (it never completed); the process is idle
		// next round and Next mints its following call. Illegal lost-CAS
		// decisions (the pending access is not a CAS, or it would fail
		// anyway) downgrade to ordinary steps.
		step = func(ready []memsim.PID) error {
			pid, kind := fs.NextFault(ready)
			switch kind {
			case memsim.FaultCrash:
				_, err := ctl.Crash(pid, fs.Vol())
				return err
			case memsim.FaultLostCAS:
				if acc, ok := ctl.Pending(pid); ok && acc.Op == memsim.OpCAS &&
					m.Load(acc.Addr) == acc.Arg1 {
					_, err := ctl.StepLostCAS(pid)
					return err
				}
			}
			_, err := ctl.Step(pid)
			return err
		}
	}
	if sw, ok := w.(SteppedWorkload); ok {
		if s := sw.Stepper(ctl, cfg.Scheduler); s != nil {
			step = s
		}
	}

	res := &Result{ownerFn: owner, n: n, scorers: cfg.Scorers}
	harvest := func(pid memsim.PID) error {
		if ret, ended := ctl.CallEnded(pid); ended {
			if _, err := ctl.FinishCall(pid); err != nil {
				return err
			}
			res.Calls++
			completed.Inc(int(pid))
			w.Done(pid, ret)
		}
		return nil
	}

	ready := make([]memsim.PID, 0, n)
	for {
		if cfg.Interrupt != nil {
			select {
			case <-cfg.Interrupt:
				res.Interrupted = true
			default:
			}
			if res.Interrupted {
				break
			}
		}
		ready = ready[:0]
		for i := 0; i < n; i++ {
			pid := memsim.PID(i)
			if err := harvest(pid); err != nil {
				return nil, err
			}
			if ctl.Idle(pid) {
				if err := start(pid); err != nil {
					return nil, err
				}
			}
			if _, ok := ctl.Pending(pid); ok {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			break
		}
		if res.Steps >= cfg.MaxSteps {
			res.Truncated = true
			exhausted.Inc(0)
			break
		}
		if err := step(ready); err != nil {
			return nil, err
		}
		res.Steps++
	}
	// Harvest once more: a call that completed on the final applied step
	// is collected even when the loop broke before the top-of-loop
	// harvest could run (the interrupt check fires first, and budget
	// truncation must never under-count completed work).
	for i := 0; i < n; i++ {
		if err := harvest(memsim.PID(i)); err != nil {
			return nil, err
		}
	}
	if v, ok := w.(Verifier); ok {
		v.Verify(m, res.Truncated || res.Interrupted)
	}

	if cfg.KeepEvents {
		res.Events = ctl.Events()
	}
	res.Reports = make([]*model.Report, len(accs))
	for i, a := range accs {
		res.Reports[i] = model.FinalReport(a)
	}
	if res.Interrupted {
		return res, fmt.Errorf("%w after %d steps", ErrInterrupted, res.Steps)
	}
	if res.Truncated {
		return res, fmt.Errorf("%w after %d steps", ErrBudget, res.Steps)
	}
	return res, nil
}
