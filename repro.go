// Package repro is the public facade of the reproduction of Golab,
// "A Complexity Separation Between the Cache-Coherent and Distributed
// Shared Memory Models" (PODC 2011, arXiv:1109.5153).
//
// The implementation lives in internal packages (see README.md for the
// map); this package re-exports the entry points a downstream user needs.
//
// # The streaming run/score pipeline
//
// The paper's claims are statements about RMR counts over executions, so
// the primary API is built around pricing events as they are generated
// rather than materializing traces. A Runner holds the pricing policy —
// which cost models to apply, whether to retain the trace, how runs are
// scheduled and parallelized — and every run it performs streams each
// shared-memory event through the attached models' incremental
// accumulators:
//
//	r := repro.NewRunner(repro.WithModels(repro.CC, repro.DSM))
//	res, err := r.Run(repro.Config{Algorithm: alg, N: 8, MaxPolls: 32})
//	// res.Reports[0] is the CC bill, res.Reports[1] the DSM bill;
//	// no []Event was retained.
//
// Batches run on a worker pool with context cancellation:
//
//	results, err := r.RunMany(ctx, configs) // results[i] matches configs[i]
//
// Runs are deterministic per Config (the simulator is deterministic and
// each config gets its own scheduler state), so RunMany's results do not
// depend on the worker count.
//
// A runner built WithTrace(true) also retains the full trace, and
// Result.Score then prices it after the fact under any cost model, attached
// or not. Beside the Runner, the package exports:
//
//   - Adversary runs the Section 6 lower-bound construction
//     (internal/lowerbound) against any algorithm;
//   - Algorithms lists every signaling algorithm in the repository
//     (internal/signal), and Locks every mutual-exclusion lock
//     (internal/mutex).
//
// For fine-grained control (custom algorithms, schedulers, exhaustive
// exploration, progress checking) import the internal packages directly
// from within this module, or start from the runnable examples under
// examples/.
package repro

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/signal"
	"repro/internal/worksteal"
)

// Re-exported core types: a Config describes one simulated history of the
// signaling problem; a Runner executes it; the Result carries the streaming
// reports and (optionally) the retained trace.
type (
	// Config describes one simulated signaling history.
	Config = core.Config
	// Result is the outcome of a simulated history.
	Result = core.Result
	// Table is one regenerated experiment table.
	Table = core.Table
	// Algorithm is a named signaling-problem solution.
	Algorithm = signal.Algorithm
	// CostModel prices a trace in RMRs.
	CostModel = model.CostModel
	// Scorer is a cost model that can price events as they are generated
	// (all models in this repository are Scorers).
	Scorer = model.Scorer
	// Accumulator is one run's incremental pricing state.
	Accumulator = model.Accumulator
	// Report is a cost model's verdict on a run.
	Report = model.Report
	// Scheduler orders the steps of a simulated history.
	Scheduler = sched.Scheduler
	// AdversaryConfig parameterizes the Section 6 lower-bound adversary.
	AdversaryConfig = lowerbound.Config
	// Certificate is the adversary's evidence.
	Certificate = lowerbound.Certificate
)

// ErrBudget is returned (wrapped) with a valid truncated Result when a run
// exhausts its step budget.
var ErrBudget = core.ErrBudget

// ErrInterrupted is returned (wrapped) with a valid truncated Result when
// a run stops because Config.Interrupt fired (runs interrupted by a
// cancelled context return the context's error instead).
var ErrInterrupted = core.ErrInterrupted

// Cost models for the two architectures of Figure 1, plus the Section 8
// message-accounting variants.
var (
	// DSM is the distributed-shared-memory cost model (Section 2).
	DSM Scorer = model.ModelDSM
	// CC is the cache-coherent cost model (Section 2, loose definition).
	CC Scorer = model.ModelCC
	// CCWriteBack is the write-back CC variant.
	CCWriteBack Scorer = model.ModelCCWriteBack
	// CCDirIdeal counts one invalidation message per destroyed copy
	// (Section 8 ideal directory).
	CCDirIdeal Scorer = model.ModelCCDirIdeal
)

// CCDirLimited returns the Section 8 limited-directory CC model tracking at
// most limit sharers precisely.
func CCDirLimited(limit int) Scorer { return model.CCDirLimited(limit) }

// StandardModels returns the four standard models (DSM, CC, CCWriteBack,
// CCDirIdeal), the set every experiment prices runs under.
func StandardModels() []Scorer { return model.StandardScorers() }

// Runner executes signaling histories under a fixed measurement policy:
// which cost models price each run (streaming, single pass), whether the
// trace is retained, how schedulers are minted for configs that do not
// bring their own, and how many workers drive batches. The zero policy
// (NewRunner with no options) runs trace-free and unpriced.
//
// A Runner is immutable after construction and safe for concurrent use.
type Runner struct {
	models   []Scorer
	trace    bool
	newSched func() Scheduler
	workers  int
	ctx      context.Context
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithModels attaches streaming cost models: every run is priced under
// each of them in a single pass and the reports land in Result.Reports in
// the same order. Configs that set their own Scorers override this.
func WithModels(models ...Scorer) RunnerOption {
	return func(r *Runner) { r.models = models }
}

// WithTrace switches full-trace retention on: Result.Events holds the
// complete execution and Result.Score can price it under any model after
// the fact. Off by default — scoring-only workloads keep O(1) retained
// events.
func WithTrace(keep bool) RunnerOption {
	return func(r *Runner) { r.trace = keep }
}

// WithScheduler installs a scheduler factory, invoked once per run for
// every config that does not carry its own Scheduler. A factory (rather
// than an instance) is required because schedulers are stateful and runs
// may execute concurrently. The factory must be safe for concurrent calls.
func WithScheduler(newSched func() Scheduler) RunnerOption {
	return func(r *Runner) { r.newSched = newSched }
}

// WithWorkers sets the worker-pool size used by RunMany. The default is
// runtime.GOMAXPROCS(0); values below 1 are raised to 1.
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.workers = n }
}

// WithContext installs the base context used by Run and by RunMany when
// its ctx argument is nil. Cancelling it interrupts runs between steps.
func WithContext(ctx context.Context) RunnerOption {
	return func(r *Runner) { r.ctx = ctx }
}

// NewRunner returns a Runner with the given policy.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{
		workers: runtime.GOMAXPROCS(0),
		ctx:     context.Background(),
	}
	for _, opt := range opts {
		opt(r)
	}
	if r.workers < 1 {
		r.workers = 1
	}
	if r.ctx == nil {
		r.ctx = context.Background()
	}
	return r
}

// apply merges the runner's policy into one config.
func (r *Runner) apply(cfg Config) Config {
	if len(cfg.Scorers) == 0 {
		cfg.Scorers = r.models
	}
	if !cfg.KeepEvents {
		cfg.KeepEvents = r.trace
	}
	if cfg.Scheduler == nil && r.newSched != nil {
		cfg.Scheduler = r.newSched()
	}
	return cfg
}

// mergeInterrupt returns an interrupt channel that fires when ctx is done
// or when the config's own interrupt fires, whichever comes first. The
// returned cleanup must run when the run finishes.
func mergeInterrupt(ctx context.Context, own <-chan struct{}) (<-chan struct{}, func()) {
	if ctx.Done() == nil {
		return own, func() {}
	}
	if own == nil {
		return ctx.Done(), func() {}
	}
	either := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-own:
		case <-stop:
			return
		}
		close(either)
	}()
	return either, func() { close(stop) }
}

// runOne executes one config under ctx.
func (r *Runner) runOne(ctx context.Context, cfg Config) (*Result, error) {
	cfg = r.apply(cfg)
	interrupt, cleanup := mergeInterrupt(ctx, cfg.Interrupt)
	defer cleanup()
	cfg.Interrupt = interrupt
	res, err := core.Run(cfg)
	if err != nil && errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, err
}

// Run simulates one history under the runner's policy. Attached models
// price the run in a single pass; the trace is retained only under
// WithTrace. Cancellation of the WithContext context interrupts the run
// and returns the context's error.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.runOne(r.ctx, cfg)
}

// RunMany executes every config on a pool of WithWorkers workers and
// returns a slice with results[i] the outcome of cfgs[i]. Each run is an
// independent deterministic simulation with its own scheduler state, so
// the results are a function of the configs alone, whatever the worker
// count and completion order.
//
// Truncated runs count as successes: a run stopped by its step budget
// (ErrBudget) or by its config's own Interrupt channel (ErrInterrupted)
// keeps its valid truncated Result (Result.Truncated / Result.Interrupted
// set) and does not fail the batch. When ctx is cancelled mid-batch,
// RunMany stops promptly and returns the completed prefix-independent
// results — unfinished or unstarted configs are left nil — together with
// ctx.Err(). Otherwise the first per-config error is returned; the
// remaining results are still valid. A nil ctx falls back to the
// WithContext context.
func (r *Runner) RunMany(ctx context.Context, cfgs []Config) ([]*Result, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	worksteal.Each(ctx, r.workers, len(cfgs), func(i int) bool {
		res, err := r.runOne(ctx, cfgs[i])
		// A config's own interrupt is a deliberate truncation, like a
		// budget stop; ctx cancellation surfaces as ctx.Err() and leaves
		// the (timing-dependent) partial result out.
		if err == nil || errors.Is(err, ErrBudget) || errors.Is(err, ErrInterrupted) {
			results[i] = res
		}
		errs[i] = err
		return false
	})
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, firstHardError(errs)
}

// firstHardError returns the first error that is not a deliberate
// truncation (budget stop or per-config interrupt), or nil.
func firstHardError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrBudget) && !errors.Is(err, ErrInterrupted) {
			return err
		}
	}
	return nil
}

// Lock-workload facade: the contended mutual-exclusion workloads of
// Section 3 run on the same streaming harness and the same Runner policy
// as signaling histories.
type (
	// LockAlgorithm is a named mutual-exclusion lock construction.
	LockAlgorithm = mutex.Algorithm
	// LockConfig describes one contended critical-section workload.
	LockConfig = mutex.RunConfig
	// LockResult is the outcome of a lock workload.
	LockResult = mutex.RunResult
)

// applyLock merges the runner's policy into one lock config.
func (r *Runner) applyLock(cfg LockConfig) LockConfig {
	if len(cfg.Scorers) == 0 {
		cfg.Scorers = r.models
	}
	if !cfg.KeepEvents {
		cfg.KeepEvents = r.trace
	}
	if cfg.Scheduler == nil && r.newSched != nil {
		cfg.Scheduler = r.newSched()
	}
	return cfg
}

// runLock executes one lock workload under ctx. mutex.Run applies the
// config exactly, so a zero-policy runner stays trace-free and unpriced,
// as on the signaling path.
func (r *Runner) runLock(ctx context.Context, cfg LockConfig) (*LockResult, error) {
	cfg = r.applyLock(cfg)
	interrupt, cleanup := mergeInterrupt(ctx, cfg.Interrupt)
	defer cleanup()
	cfg.Interrupt = interrupt
	res, err := mutex.Run(cfg)
	if err != nil && errors.Is(err, ErrInterrupted) && ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, err
}

// RunLock executes one contended lock workload under the runner's policy:
// attached models price the run in a single pass, the trace is retained
// only under WithTrace, and cancelling the WithContext context interrupts
// the run between steps.
func (r *Runner) RunLock(cfg LockConfig) (*LockResult, error) {
	return r.runLock(r.ctx, cfg)
}

// LockSweep enumerates a grid of contended lock workloads: every listed
// algorithm at every process count under every scheduler.
type LockSweep struct {
	// Locks are the algorithms to sweep; empty means every lock in the
	// repository.
	Locks []LockAlgorithm
	// Ns are the process counts; empty means {2, 4, 8, 16}.
	Ns []int
	// Schedulers are factories minting one fresh scheduler per grid cell
	// (schedulers are stateful and cells run concurrently); nil means a
	// single seeded-random axis (seed 1).
	Schedulers []func() Scheduler
	// Passages per process (default 8).
	Passages int
	// MaxSteps bounds each cell (default 4e6, the experiment-suite
	// budget).
	MaxSteps int
}

// LockCell is one completed cell of a lock sweep.
type LockCell struct {
	// Lock is the algorithm name.
	Lock string
	// N is the process count.
	N int
	// Sched indexes the sweep's scheduler axis.
	Sched int
	// Result is the cell's outcome; nil if the sweep was cancelled before
	// the cell completed.
	Result *LockResult
}

// SweepLocks runs the full grid of sw on the runner's worker pool and
// returns the cells in deterministic grid order (lock-major, then N, then
// scheduler). Each cell is an independent deterministic simulation with
// its own freshly-minted scheduler, so the results are a function of the
// sweep alone, whatever the worker count. Budget-truncated cells count as
// successes (LockResult.Truncated set); when ctx is cancelled mid-sweep,
// SweepLocks stops promptly and returns the completed cells together with
// ctx.Err(). A nil ctx falls back to the WithContext context.
func (r *Runner) SweepLocks(ctx context.Context, sw LockSweep) ([]LockCell, error) {
	if ctx == nil {
		ctx = r.ctx
	}
	locks := sw.Locks
	if len(locks) == 0 {
		locks = mutex.All()
	}
	ns := sw.Ns
	if len(ns) == 0 {
		ns = []int{2, 4, 8, 16}
	}
	scheds := sw.Schedulers
	if len(scheds) == 0 {
		scheds = []func() Scheduler{func() Scheduler { return sched.NewRandom(1) }}
	}
	passages := sw.Passages
	if passages < 1 {
		passages = 8
	}
	maxSteps := sw.MaxSteps
	if maxSteps == 0 {
		maxSteps = 4_000_000
	}

	cells := make([]LockCell, 0, len(locks)*len(ns)*len(scheds))
	cfgs := make([]LockConfig, 0, cap(cells))
	for _, lk := range locks {
		for _, n := range ns {
			for si, mint := range scheds {
				cells = append(cells, LockCell{Lock: lk.Name, N: n, Sched: si})
				cfgs = append(cfgs, LockConfig{
					Lock:      lk,
					N:         n,
					Passages:  passages,
					MaxSteps:  maxSteps,
					Scheduler: mint(),
				})
			}
		}
	}
	errs := make([]error, len(cells))
	worksteal.Each(ctx, r.workers, len(cells), func(i int) bool {
		res, err := r.runLock(ctx, cfgs[i])
		if err == nil || errors.Is(err, ErrBudget) || errors.Is(err, ErrInterrupted) {
			cells[i].Result = res
		}
		errs[i] = err
		return false
	})
	if err := ctx.Err(); err != nil {
		return cells, err
	}
	return cells, firstHardError(errs)
}

// Adversary executes the Section 6 lower-bound construction and returns
// its certificate.
func Adversary(cfg AdversaryConfig) (*Certificate, error) { return lowerbound.Run(cfg) }

// Worst-case schedule search (internal/search): where Adversary replays
// the paper's hand-built lower-bound strategy, SearchWorstCase *finds* the
// schedule that maximizes a cost model's RMR bill for a concrete
// algorithm and workload — exhaustively (exact worst cost plus its
// lexicographically least witness) or by seeded Monte Carlo sampling for
// configurations beyond exhaustive reach.
type (
	// SearchConfig describes a worst-case schedule search.
	SearchConfig = search.Config
	// SearchResult is the outcome of a worst-case schedule search.
	SearchResult = search.Result
	// SearchMode selects exhaustive enumeration or Monte Carlo sampling.
	SearchMode = search.Mode
)

// The worst-case search modes.
const (
	// SearchExhaustive enumerates every schedule up to the depth bound.
	SearchExhaustive = search.ModeExhaustive
	// SearchSample runs seeded random walks.
	SearchSample = search.ModeSample
)

// SearchWorstCase synthesizes the schedule that maximizes the configured
// cost model's RMR total. The reported witness always replays to exactly
// the reported cost, and every Result field is deterministic for any
// worker count; see internal/search for the engine.
func SearchWorstCase(cfg SearchConfig) (*SearchResult, error) { return search.Run(cfg) }

// Algorithms returns every signaling algorithm in the repository.
func Algorithms() []Algorithm { return signal.All() }

// AlgorithmByName returns the named signaling algorithm.
func AlgorithmByName(name string) (Algorithm, error) { return signal.ByName(name) }

// Locks returns every mutual-exclusion lock in the repository.
func Locks() []mutex.Algorithm { return mutex.All() }

// Experiments regenerates the full E1–E12 experiment table suite.
func Experiments() ([]*Table, error) { return core.Experiments() }

// ExperimentsContext regenerates the experiment suite on up to workers
// goroutines, honoring ctx cancellation between experiments.
func ExperimentsContext(ctx context.Context, workers int) ([]*Table, error) {
	return core.ExperimentsContext(ctx, workers)
}
