// Package core is the top-level facade of the reproduction: it deploys a
// signaling algorithm on the simulator, drives waiters and a signaler under
// a scheduler, scores the resulting trace under the RMR cost models of both
// architectures, and checks Specification 4.1 — everything needed to
// regenerate the paper's claims (see DESIGN.md's experiment index).
package core

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/signal"
	"repro/internal/telemetry"
)

// ErrBudget is returned when a run exhausts its step budget before every
// process terminates. Callers that intentionally truncate histories (all
// finite prefixes are valid histories, Definition 6.1) may ignore it. It
// is the harness sentinel, shared with the lock/GME/semisync workloads so
// one errors.Is check covers both measurement pipelines.
var ErrBudget = harness.ErrBudget

// ErrInterrupted is returned when a run stops because Config.Interrupt
// fired. Like ErrBudget it accompanies a valid truncated Result (every
// finite prefix is a history).
var ErrInterrupted = harness.ErrInterrupted

// Config describes one simulated history of the signaling problem.
type Config struct {
	// Algorithm is the solution under test.
	Algorithm signal.Algorithm
	// N is the number of processes (waiters 0..N-2, signaler N-1 unless
	// Waiters/Signaler override).
	N int
	// Waiters lists the waiter processes; nil means 0..N-2.
	Waiters []memsim.PID
	// Signaler is the signaling process; 0 value with nil Waiters means
	// N-1.
	Signaler memsim.PID
	// Signalers optionally lists several signaling processes (the final
	// Section 7 variant); when set it overrides Signaler and each listed
	// process makes one Signal call.
	Signalers []memsim.PID
	// NoSignaler suppresses the Signal call entirely (waiters poll into
	// the void and terminate by budget).
	NoSignaler bool
	// Blocking selects Wait() instead of Poll() for waiters.
	Blocking bool
	// MaxPolls bounds how many Poll calls a waiter makes before
	// terminating even without observing the signal (the spec permits
	// this; the lower bound exploits it). 0 means poll until true.
	MaxPolls int
	// SignalAfter delays the start of the Signal call until this many
	// shared-memory accesses have occurred globally.
	SignalAfter int
	// MaxSteps bounds the total number of shared-memory accesses.
	MaxSteps int
	// Scheduler orders the steps; nil means round-robin.
	Scheduler sched.Scheduler
	// Scorers attaches streaming cost models: each accumulator prices
	// every event as it is generated, and the finished reports land in
	// Result.Reports (in Scorers order). This is the single-pass scoring
	// path — with KeepEvents off, a run under any number of models
	// retains no trace at all.
	Scorers []model.Scorer
	// KeepEvents retains the full execution trace in Result.Events. It is
	// off by default: scoring-only workloads should attach Scorers
	// instead and let the trace stream away. Tools that inspect
	// individual events (tracedump, replay debugging) switch it on.
	KeepEvents bool
	// Sink, when non-nil, additionally observes every trace event as it
	// is generated (after any attached scorers).
	Sink memsim.EventSink
	// Interrupt, when non-nil, is polled between steps; once it is closed
	// (or receives), the run stops and returns ErrInterrupted with the
	// truncated Result. Runner wires a context.Context's Done channel
	// here.
	Interrupt <-chan struct{}
	// ForceBlocking pins the run to the blocking engine tier even when
	// the algorithm has native resumable programs — the A/B knob behind
	// engine-equivalence tests and BenchmarkEngineStep. Traces are
	// identical either way.
	ForceBlocking bool
	// Telemetry, when non-nil, receives call start/completion and
	// budget-exhaustion counters (the same families the workload
	// harness ticks). Write-only: the Result is identical with or
	// without it.
	Telemetry *telemetry.Registry
}

// forceBlockingDefault flips every core.Run onto the blocking engine tier;
// the experiments equivalence test uses it to regenerate E1–E8 and the
// ablations on the compatibility path without threading a knob through
// every experiment constructor.
var forceBlockingDefault = false

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Algorithm.New == nil {
		return errors.New("core: config requires an algorithm")
	}
	if c.N < 2 {
		return fmt.Errorf("core: need at least 2 processes, got %d", c.N)
	}
	if c.Waiters == nil {
		c.Waiters = make([]memsim.PID, 0, c.N-1)
		for i := 0; i < c.N-1; i++ {
			c.Waiters = append(c.Waiters, memsim.PID(i))
		}
		c.Signaler = memsim.PID(c.N - 1)
	}
	if c.Signalers == nil {
		c.Signalers = []memsim.PID{c.Signaler}
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000
	}
	if c.Scheduler == nil {
		c.Scheduler = sched.NewRoundRobin()
	}
	return nil
}

// Result is the outcome of a simulated history.
type Result struct {
	// Events is the full execution trace; nil unless Config.KeepEvents
	// was set.
	Events []memsim.Event
	// Reports are the streaming reports of the attached Config.Scorers,
	// in the same order.
	Reports []*model.Report
	// Returns maps each process to the return values of its completed
	// calls, in order.
	Returns map[memsim.PID][]memsim.Value
	// Signaled reports whether the Signal call completed.
	Signaled bool
	// Steps is the number of shared-memory accesses performed.
	Steps int
	// Truncated reports whether the run stopped on the step budget.
	Truncated bool
	// Interrupted reports whether the run stopped on Config.Interrupt.
	Interrupted bool
	// Violations are breaches of Specification 4.1 (empty for correct
	// algorithms).
	Violations []signal.SpecViolation

	ownerFn func(memsim.Addr) memsim.PID
	n       int
	// scorers mirrors Reports: the attached scorer that produced each
	// report, for exact model matching in Score.
	scorers []model.Scorer
}

// Report returns the streaming report whose model name matches name, or
// nil if no such scorer was attached. Note that a CC model's name does not
// encode its Limit, EvictEvery or StrictInvalidate knobs; attach at most
// one variant per name if you look reports up this way (Score matches by
// model value instead and has no such ambiguity).
func (r *Result) Report(name string) *model.Report {
	for _, rep := range r.Reports {
		if rep.Model == name {
			return rep
		}
	}
	return nil
}

// Score prices the run under the given cost model. If the trace was
// retained (Config.KeepEvents) it is scored in a batch pass; otherwise
// Score falls back to the streaming report of the attached scorer that is
// exactly this model (value equality, so two CC variants differing only
// in Limit or EvictEvery never answer for each other), and returns nil if
// there is none. New code should attach Scorers and read Result.Reports
// directly; Score is kept for the trace-retaining path and for
// compatibility.
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
// that annotate the trace themselves (e.g. cmd/tracedump).
func (r *Result) OwnerFunc() func(memsim.Addr) memsim.PID { return r.ownerFn }

// N returns the number of processes in the run.
func (r *Result) N() int { return r.n }

// Run simulates one history of cfg and returns its result. Attached
// Scorers price every event as it is generated (one pass, no retained
// trace); with KeepEvents set the full trace is additionally retained and
// can be scored after the fact. Run returns ErrBudget or ErrInterrupted
// (wrapped) together with a valid, truncated Result when the step budget
// is exhausted or Config.Interrupt fires; all other errors indicate misuse
// or algorithm bugs.
func Run(cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	exec, err := cfg.Algorithm.Deploy(cfg.N)
	if err != nil {
		return nil, err
	}
	defer exec.Close()
	exec.ForceBlocking(cfg.ForceBlocking || forceBlockingDefault)

	res := &Result{Returns: make(map[memsim.PID][]memsim.Value, cfg.N)}

	// Streaming consumers: attached scorers, the online spec checker, and
	// any extra sink observe each event as it is emitted; the trace
	// itself is retained only on request.
	exec.RetainEvents(cfg.KeepEvents)
	owner := exec.Machine().Owner
	accs := make([]model.Accumulator, len(cfg.Scorers))
	for i, s := range cfg.Scorers {
		accs[i] = s.Begin(cfg.N, owner)
	}
	spec := signal.NewSpecChecker()
	exec.Attach(func(ev memsim.Event) {
		for _, a := range accs {
			a.Add(ev)
		}
		spec.Observe(ev)
		if cfg.Sink != nil {
			cfg.Sink(ev)
		}
	})

	waiterKind := memsim.CallPoll
	if cfg.Blocking {
		waiterKind = memsim.CallWait
	}
	type wstate struct {
		polls int
		done  bool
	}
	waiters := make(map[memsim.PID]*wstate, len(cfg.Waiters))
	for _, w := range cfg.Waiters {
		waiters[w] = &wstate{}
	}
	isSignaler := make(map[memsim.PID]bool, len(cfg.Signalers))
	for _, s := range cfg.Signalers {
		isSignaler[s] = true
	}
	signalStarted := make(map[memsim.PID]bool, len(cfg.Signalers))
	signalDone := false

	// The telemetry counters no-op on a nil registry (nil handles).
	started := cfg.Telemetry.Counter("repro_harness_calls_started_total")
	completed := cfg.Telemetry.Counter("repro_harness_calls_completed_total")
	exhausted := cfg.Telemetry.Counter("repro_harness_budget_exhausted_total")

	// harvest collects p's completed call, if any.
	harvest := func(p memsim.PID) error {
		ret, ended := exec.CallEnded(p)
		if !ended {
			return nil
		}
		if _, err := exec.Finish(p); err != nil {
			return err
		}
		completed.Inc(int(p))
		res.Returns[p] = append(res.Returns[p], ret)
		if isSignaler[p] && signalStarted[p] {
			signalDone = true
		}
		if ws, ok := waiters[p]; ok {
			ws.polls++
			if cfg.Blocking || ret != 0 {
				ws.done = true
			} else if cfg.MaxPolls > 0 && ws.polls >= cfg.MaxPolls {
				ws.done = true
			}
		}
		return nil
	}

	// advance collects completed calls and starts new ones; it returns
	// the set of processes with a pending access, in a buffer reused
	// across steps.
	ready := make([]memsim.PID, 0, cfg.N)
	advance := func() ([]memsim.PID, error) {
		ready = ready[:0]
		for pid := 0; pid < cfg.N; pid++ {
			p := memsim.PID(pid)
			if err := harvest(p); err != nil {
				return nil, err
			}
			if exec.Idle(p) {
				if ws, ok := waiters[p]; ok && !ws.done {
					if err := exec.Start(p, waiterKind); err != nil {
						return nil, err
					}
					started.Inc(int(p))
				} else if isSignaler[p] && !cfg.NoSignaler && !signalStarted[p] &&
					res.Steps >= cfg.SignalAfter {
					if err := exec.Start(p, memsim.CallSignal); err != nil {
						return nil, err
					}
					started.Inc(int(p))
					signalStarted[p] = true
				}
			}
			if _, ok := exec.Pending(p); ok {
				ready = append(ready, p)
			}
		}
		return ready, nil
	}

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
		ready, err := advance()
		if err != nil {
			return nil, err
		}
		if len(ready) == 0 {
			break
		}
		if res.Steps >= cfg.MaxSteps {
			res.Truncated = true
			exhausted.Inc(0)
			break
		}
		pid := cfg.Scheduler.Next(ready)
		if _, err := exec.Step(pid); err != nil {
			return nil, err
		}
		res.Steps++
	}
	// Harvest once more: a call that completed on the final applied step
	// is collected even when the interrupt check broke the loop before
	// advance could run (mirroring the workload harness, which fixes the
	// same truncation under-count for locks).
	for pid := 0; pid < cfg.N; pid++ {
		if err := harvest(memsim.PID(pid)); err != nil {
			return nil, err
		}
	}

	res.Signaled = signalDone
	if cfg.KeepEvents {
		res.Events = exec.Events()
	}
	res.Reports = make([]*model.Report, len(accs))
	for i, a := range accs {
		res.Reports[i] = model.FinalReport(a)
	}
	res.scorers = cfg.Scorers
	res.ownerFn = owner
	res.n = cfg.N
	res.Violations = spec.Violations()
	if res.Interrupted {
		return res, fmt.Errorf("%w after %d steps", ErrInterrupted, res.Steps)
	}
	if res.Truncated {
		return res, fmt.Errorf("%w after %d steps", ErrBudget, res.Steps)
	}
	return res, nil
}
