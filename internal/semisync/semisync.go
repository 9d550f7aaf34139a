// Package semisync models the semi-synchronous systems of the paper's
// Section 3: consecutive steps of the same process are at most Δ time
// units apart, every process knows Δ, and a process may delay its own
// execution to force others to make progress. In such systems mutual
// exclusion is solvable with O(1) RMRs in the DSM model while the CC model
// needs Ω(log log N) [23] — the one known separation in the *opposite*
// direction to this paper's, which is why Section 3 discusses it.
//
// The package provides a timed scheduler (a global clock plus the Δ-gap
// guarantee that a ready process is scheduled before its deadline
// expires) and Fischer's timed lock, the canonical knowledge-of-Δ mutex:
// correct in every Δ-respecting schedule and incorrect under unrestricted
// asynchrony, which the tests demonstrate in both directions. The O(1)-RMR DSM construction of [23] proper is out of
// scope; the runnable content here is the timing *model*
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

// Scheduler imposes the semi-synchronous contract on a tie-break
// scheduler: time advances one tick per scheduled step, and any process
// with a pending access is scheduled at most Delta ticks after its
// previous step (or after becoming pending). Subject to that constraint,
// the tie-break scheduler chooses freely — so schedules remain
// adversarial within the timing model. The caller must apply every step
// it picks, as the harness drive loop does.
type Scheduler struct {
	delta int
	clock int
	due   []int // per pid: the tick its next step is due by; 0 while not pending
	pick  sched.Scheduler
}

var _ sched.Scheduler = (*Scheduler)(nil)

// NewScheduler wraps the tie-break scheduler pick with the Δ-gap
// discipline.
func NewScheduler(delta int, pick sched.Scheduler) *Scheduler {
	if pick == nil {
		pick = sched.NewRandom(1)
	}
	if delta < 1 {
		delta = 1
	}
	return &Scheduler{delta: delta, pick: pick}
}

// Next implements sched.Scheduler, honouring Δ-deadlines first.
func (s *Scheduler) Next(ready []memsim.PID) memsim.PID {
	// ready is sorted by pid, so its last pid bounds the deadline table.
	if n := int(ready[len(ready)-1]) + 1; n > len(s.due) {
		s.due = append(s.due, make([]int, n-len(s.due))...)
	}
	// Register deadlines for newly pending processes (a deadline is at
	// least Δ ≥ 1) and forget the processes no longer pending.
	j := 0
	for p := range s.due {
		if j < len(ready) && ready[j] == memsim.PID(p) {
			j++
			if s.due[p] == 0 {
				s.due[p] = s.clock + s.delta
			}
		} else {
			s.due[p] = 0
		}
	}
	// Most overdue process first; otherwise free choice.
	chosen := memsim.PID(-1)
	for _, p := range ready {
		if d := s.due[p]; d <= s.clock && (chosen == -1 || d < s.due[chosen]) {
			chosen = p
		}
	}
	if chosen == -1 {
		chosen = s.pick.Next(ready)
	}
	s.due[chosen] = s.clock + s.delta
	s.clock++
	return chosen
}

// ErrBudget is returned when a semisync run exhausts its step budget. It
// is the shared harness sentinel.
var ErrBudget = harness.ErrBudget

// ErrInterrupted is returned when a semisync run stops because
// RunConfig.Interrupt fired.
var ErrInterrupted = harness.ErrInterrupted

// RunConfig describes a timed mutual-exclusion workload using Fischer's
// lock. Scorers, KeepEvents, Sink and Interrupt mirror mutex.RunConfig:
// attached scorers price the run in a single pass, and only KeepEvents
// retains the trace for after-the-fact scoring.
type RunConfig struct {
	// N is the number of competing processes.
	N int
	// Delta is the known step-gap bound.
	Delta int
	// Passages per process.
	Passages int
	// Timed selects the Δ-respecting Scheduler; false runs the same
	// workload under an unrestricted random scheduler (Fischer's
	// correctness assumption removed).
	Timed bool
	// Seed feeds the tie-break scheduler.
	Seed int64
	// MaxSteps bounds total accesses (default 2e6).
	MaxSteps int
	// Scorers attaches streaming cost models (single-pass pricing).
	Scorers []model.Scorer
	// KeepEvents retains the full execution trace in RunResult.Events, so
	// RunResult.Score can price models that were not attached.
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

// NewWorkload returns the workload for n processes, each performing the
// given number of passages under Fischer's lock with the given Δ: the
// mutex passage workload (mutex.Workload, instrumented with the shared
// mutex.CSProbe) over Fischer's lock. Run under a Scheduler it respects
// the Δ-gap discipline; under any other scheduler it exposes Fischer's
// lock to unrestricted asynchrony.
func NewWorkload(n, delta, passages int) *mutex.Workload {
	fischer := mutex.Algorithm{
		Name: "fischer",
		New: func(m *memsim.Machine, n int) (mutex.Lock, error) {
			return NewFischer(m, n, delta), nil
		},
	}
	return mutex.NewWorkload(fischer, n, passages)
}

// Run drives N processes through Fischer-guarded critical sections on the
// streaming harness, applying cfg exactly as given. It returns ErrBudget
// or ErrInterrupted (wrapped) together with a valid truncated RunResult.
func Run(cfg RunConfig) (*RunResult, error) {
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

	random := sched.NewRandom(cfg.Seed)
	defer random.Release()
	var s sched.Scheduler = random
	if cfg.Timed {
		s = NewScheduler(cfg.Delta, s)
	}
	w := NewWorkload(cfg.N, cfg.Delta, cfg.Passages)
	defer w.Release()
	hres, err := harness.Run(harness.Config{
		Workload:   w,
		Scheduler:  s,
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
