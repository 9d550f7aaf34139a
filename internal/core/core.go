// Package core is the top-level facade of the reproduction: it deploys a
// signaling algorithm on the simulator, drives waiters and a signaler under
// a scheduler, scores the resulting trace under the RMR cost models of both
// architectures, and checks Specification 4.1 — everything needed to
// regenerate the paper's claims (each ExperimentEn in experiments.go names
// the claim its table regenerates). Run is
// a thin layer over the generic harness: it validates its Config, builds
// the signal.Workload call policy and attaches the online spec checker;
// harness.Run owns the drive loop, the budget and the scoring pipeline.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// is generated (after any attached scorers). A signal.Returns's
	// Observe collects each process's return values.
	Sink memsim.EventSink
	// Interrupt, when non-nil, is polled between steps; once it is closed
	// (or receives), the run stops and returns ErrInterrupted with the
	// truncated Result. Runner wires a context.Context's Done channel
	// here.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives the harness's call
	// start/completion and budget-exhaustion counters. Write-only: the
	// Result is identical with or without it.
	Telemetry *telemetry.Registry
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Algorithm.New == nil {
		return errors.New("core: config requires an algorithm")
	}
	if c.N < 2 {
		return fmt.Errorf("core: need at least 2 processes, got %d", c.N)
	}
	if c.Waiters == nil {
		c.Waiters = pidRange(0, c.N-1)
		c.Signaler = memsim.PID(c.N - 1)
	}
	if err := checkPIDs(c.N, "waiter", c.Waiters); err != nil {
		return err
	}
	if c.Signalers == nil {
		if err := checkPID(c.N, "signaler", c.Signaler); err != nil {
			return err
		}
		c.Signalers = pidRange(int(c.Signaler), int(c.Signaler)+1)
	} else if err := checkPIDs(c.N, "signaler", c.Signalers); err != nil {
		return err
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200_000
	}
	return nil
}

// checkPIDs rejects the first of pids outside the machine's processes.
func checkPIDs(n int, role string, pids []memsim.PID) error {
	for _, p := range pids {
		if err := checkPID(n, role, p); err != nil {
			return err
		}
	}
	return nil
}

// checkPID rejects p if it lies outside the machine's processes.
func checkPID(n int, role string, p memsim.PID) error {
	if int(p) < 0 || int(p) >= n {
		return fmt.Errorf("core: %s p%d outside the machine's processes [0, %d)", role, p, n)
	}
	return nil
}

// pidTable holds the PIDs 0, 1, 2, ... in order. It is never written
// once stored: a longer table replaces it, and slices of an older one
// stay valid.
var (
	pidTable   atomic.Pointer[[]memsim.PID]
	pidTableMu sync.Mutex
)

// pidRange returns the PIDs lo..hi-1 as a capacity-capped slice of the
// shared pidTable: it costs no allocation once the table is long enough,
// and a caller's append copies instead of writing into the table.
func pidRange(lo, hi int) []memsim.PID {
	if t := pidTable.Load(); t != nil && len(*t) >= hi {
		return (*t)[lo:hi:hi]
	}
	pidTableMu.Lock()
	defer pidTableMu.Unlock()
	var pids []memsim.PID
	if t := pidTable.Load(); t != nil {
		pids = *t
	}
	if len(pids) < hi {
		pids = make([]memsim.PID, max(hi, 64, 2*len(pids)))
		for i := range pids {
			pids[i] = memsim.PID(i)
		}
		pidTable.Store(&pids)
	}
	return pids[lo:hi:hi]
}

// Result is the outcome of a simulated history. The embedded harness
// result carries the trace (if retained), the streaming reports, the step
// count and the truncation flags.
type Result struct {
	*harness.Result
	// Signaled reports whether the Signal call completed.
	Signaled bool
	// Violations are breaches of Specification 4.1 (empty for correct
	// algorithms).
	Violations []signal.SpecViolation
}

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
	if cfg.Scheduler == nil {
		rr := sched.NewRoundRobin()
		defer rr.Release()
		cfg.Scheduler = rr
	}
	p := signal.Policy{
		Waiters:     cfg.Waiters,
		Signalers:   cfg.Signalers,
		Blocking:    cfg.Blocking,
		MaxPolls:    cfg.MaxPolls,
		SignalAfter: cfg.SignalAfter,
	}
	if cfg.NoSignaler {
		p.Signalers = nil
	}
	w := signal.NewWorkload(cfg.Algorithm, cfg.N, p)
	defer w.Release()
	// The online spec checker and any extra sink observe each event after
	// the attached scorers; the trace itself is retained only on request.
	// The closure reads a local copy of cfg.Sink, so cfg stays on the stack.
	spec, sink := w.Spec(), cfg.Sink
	hres, err := harness.Run(harness.Config{
		Workload:   w,
		Scheduler:  cfg.Scheduler,
		MaxSteps:   cfg.MaxSteps,
		Scorers:    cfg.Scorers,
		KeepEvents: cfg.KeepEvents,
		Sink: func(ev memsim.Event) {
			w.Observe(ev)
			spec.Observe(ev)
			if sink != nil {
				sink(ev)
			}
		},
		Interrupt: cfg.Interrupt,
		Telemetry: cfg.Telemetry,
	})
	if hres == nil {
		return nil, err
	}
	if werr := w.Err(); werr != nil {
		return nil, werr
	}
	return &Result{
		Result:     hres,
		Signaled:   w.Signaled(),
		Violations: spec.Violations(),
	}, err
}
