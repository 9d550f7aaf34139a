// Package semisync models the semi-synchronous systems of the paper's
// Section 3: consecutive steps of the same process are at most Δ time
// units apart, every process knows Δ, and a process may delay its own
// execution to force others to make progress. In such systems mutual
// exclusion is solvable with O(1) RMRs in the DSM model while the CC model
// needs Ω(log log N) [23] — the one known separation in the *opposite*
// direction to this paper's, which is why Section 3 discusses it.
//
// The package provides a timed execution driver over internal/memsim (a
// global clock plus the Δ-gap guarantee that a ready process is scheduled
// before its deadline expires) and Fischer's timed lock, the canonical
// knowledge-of-Δ mutex: correct in every Δ-respecting schedule and
// incorrect under unrestricted asynchrony, which the tests demonstrate in
// both directions. The O(1)-RMR DSM construction of [23] proper is out of
// scope (DESIGN.md §2); the runnable content here is the timing *model*
// and the correctness boundary it creates.
package semisync

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/sched"
)

// Runner drives processes over a controller under the semi-synchronous
// contract: time advances one tick per applied step, and any process with
// a pending access is scheduled at most Delta ticks after its previous
// step (or after becoming pending). Subject to that constraint, the
// tie-break scheduler chooses freely — so schedules remain adversarial
// within the timing model.
type Runner struct {
	ctl   *memsim.Controller
	delta int
	clock int
	due   map[memsim.PID]int
	pick  sched.Scheduler
}

// NewRunner wraps ctl with the Δ-gap discipline.
func NewRunner(ctl *memsim.Controller, delta int, pick sched.Scheduler) *Runner {
	if pick == nil {
		pick = sched.NewRandom(1)
	}
	if delta < 1 {
		delta = 1
	}
	return &Runner{
		ctl:   ctl,
		delta: delta,
		due:   make(map[memsim.PID]int),
		pick:  pick,
	}
}

// Clock returns the current tick count.
func (r *Runner) Clock() int { return r.clock }

// Step schedules and applies one access among the ready processes,
// honouring Δ-deadlines first. It reports whether any process was ready.
func (r *Runner) Step(ready []memsim.PID) (bool, error) {
	if len(ready) == 0 {
		return false, nil
	}
	// Register deadlines for newly pending processes.
	readySet := make(map[memsim.PID]bool, len(ready))
	for _, p := range ready {
		readySet[p] = true
		if _, ok := r.due[p]; !ok {
			r.due[p] = r.clock + r.delta
		}
	}
	for p := range r.due {
		if !readySet[p] {
			delete(r.due, p) // no longer pending
		}
	}
	// Most overdue process first; otherwise free choice.
	chosen := memsim.PID(-1)
	bestDue := 0
	for _, p := range ready {
		if d := r.due[p]; d <= r.clock && (chosen == -1 || d < bestDue) {
			chosen = p
			bestDue = d
		}
	}
	if chosen == -1 {
		chosen = r.pick.Next(ready)
	}
	if _, err := r.ctl.Step(chosen); err != nil {
		return false, err
	}
	r.due[chosen] = r.clock + r.delta
	r.clock++
	return true, nil
}

// ErrBudget is returned when a semisync run exhausts its step budget. It
// is the shared harness sentinel.
var ErrBudget = harness.ErrBudget

// ErrInterrupted is returned when a semisync run stops because
// RunConfig.Interrupt fired.
var ErrInterrupted = harness.ErrInterrupted

// RunConfig describes a timed mutual-exclusion workload using Fischer's
// lock. Scorers, KeepEvents, Sink and Interrupt mirror mutex.RunConfig:
// attached scorers price the run in a single pass, and unpriced runs
// without KeepEvents retain the trace for after-the-fact scoring (the
// legacy behavior).
type RunConfig struct {
	// N is the number of competing processes.
	N int
	// Delta is the known step-gap bound.
	Delta int
	// Passages per process.
	Passages int
	// Timed selects the Δ-respecting runner; false runs the same
	// workload under an unrestricted random scheduler (Fischer's
	// correctness assumption removed).
	Timed bool
	// Seed feeds the tie-break scheduler.
	Seed int64
	// MaxSteps bounds total accesses (default 2e6).
	MaxSteps int
	// Scorers attaches streaming cost models (single-pass pricing).
	Scorers []model.Scorer
	// KeepEvents retains the full execution trace in RunResult.Events.
	KeepEvents bool
	// Sink, when non-nil, additionally observes every trace event.
	Sink memsim.EventSink
	// Interrupt, when non-nil, stops the run between steps once it fires.
	Interrupt <-chan struct{}
}

// RunResult reports a timed workload's outcome. The embedded harness
// result carries the trace (if retained), the streaming reports, step
// counts and truncation flags.
type RunResult struct {
	*harness.Result
	// Passages completed.
	Passages int
	// MutualExclusion is false if two processes overlapped in the
	// critical section.
	MutualExclusion bool
}

// PerPassage returns total RMRs divided by completed passages under cm,
// NaN when no passage completed or cm is unscoreable for this run.
func (r *RunResult) PerPassage(cm model.CostModel) float64 {
	rep := r.Score(cm)
	if rep == nil || r.Passages == 0 {
		return math.NaN()
	}
	return float64(rep.Total) / float64(r.Passages)
}

// Workload drives Fischer-guarded critical sections on the generic
// streaming harness, instrumented with the shared mutex.CSProbe (Fischer
// is a mutex.Lock, so the violation-detection logic exists once). In
// timed mode it imposes the Δ-gap discipline through the harness's
// Stepper hook (the tie-break scheduler chooses freely within it);
// untimed it exposes Fischer's lock to unrestricted asynchrony.
type Workload struct {
	mutex.CSProbe
	n, delta  int
	timed     bool
	remaining []int
}

var (
	_ harness.Workload        = (*Workload)(nil)
	_ harness.Verifier        = (*Workload)(nil)
	_ harness.SteppedWorkload = (*Workload)(nil)
)

// NewWorkload returns the workload for n processes, each performing the
// given number of passages under Fischer's lock with the given Δ. timed
// selects the Δ-respecting schedule discipline.
func NewWorkload(n, delta, passages int, timed bool) *Workload {
	w := &Workload{n: n, delta: delta, timed: timed, remaining: make([]int, n)}
	for i := range w.remaining {
		w.remaining[i] = passages
	}
	return w
}

// N implements harness.Workload.
func (w *Workload) N() int { return w.n }

// Deploy implements harness.Workload.
func (w *Workload) Deploy(m *memsim.Machine) error {
	w.DeployProbe(m, NewFischer(m, w.n, w.delta))
	return nil
}

// Stepper implements harness.SteppedWorkload: in timed mode, steps are
// applied through the Δ-deadline runner seeded with the harness scheduler
// as tie-breaker; untimed, nil keeps the harness default (free choice).
func (w *Workload) Stepper(ctl *memsim.Controller, pick sched.Scheduler) harness.Stepper {
	if !w.timed {
		return nil
	}
	r := NewRunner(ctl, w.delta, pick)
	return func(ready []memsim.PID) error {
		_, err := r.Step(ready)
		return err
	}
}

// Next implements harness.Workload.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Program, bool) {
	if w.remaining[pid] <= 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	return "passage", w.Passage(pid), true
}

// Run drives N processes through Fischer-guarded critical sections on the
// streaming harness (unpriced runs without KeepEvents retain the trace,
// the legacy behavior). It returns ErrBudget or ErrInterrupted (wrapped)
// together with a valid truncated RunResult.
func Run(cfg RunConfig) (*RunResult, error) {
	if !cfg.KeepEvents && len(cfg.Scorers) == 0 {
		cfg.KeepEvents = true // legacy: unpriced runs keep the trace scoreable
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("semisync: need processes, got %d", cfg.N)
	}
	if cfg.Delta < 1 {
		cfg.Delta = 4
	}
	if cfg.Passages < 1 {
		cfg.Passages = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000
	}

	w := NewWorkload(cfg.N, cfg.Delta, cfg.Passages, cfg.Timed)
	hres, err := harness.Run(harness.Config{
		Workload:   w,
		Scheduler:  sched.NewRandom(cfg.Seed),
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
