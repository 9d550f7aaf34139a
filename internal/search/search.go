package search

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// Mode selects how the schedule space is searched.
type Mode uint8

// The search modes.
const (
	// ModeExhaustive enumerates every schedule up to the depth bound with
	// branch-and-bound memoization; the reported worst cost is exact and
	// the witness is the lexicographically least schedule achieving it.
	ModeExhaustive Mode = iota + 1
	// ModeSample runs Walks independent seeded random walks; the reported
	// worst cost is a lower bound on the true maximum. For configurations
	// beyond exhaustive reach.
	ModeSample
)

// String names the mode for reports and CLIs.
func (m Mode) String() string {
	switch m {
	case ModeExhaustive:
		return "exhaustive"
	case ModeSample:
		return "sample"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// MarshalText implements encoding.TextMarshaler so Results round-trip
// through JSON with readable mode names.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Mode) UnmarshalText(text []byte) error {
	switch string(text) {
	case "exhaustive":
		*m = ModeExhaustive
	case "sample":
		*m = ModeSample
	default:
		return fmt.Errorf("search: unknown mode %q", text)
	}
	return nil
}

// Config describes the workload whose worst-case schedule is sought.
type Config struct {
	// Factory deploys the algorithm instance (must be deterministic).
	Factory memsim.Factory
	// N is the number of processes on the machine.
	N int
	// Scripts assigns each participating process the sequence of calls it
	// makes; processes absent from the map take no steps. The poll-stop
	// convention of the explorer applies: a Poll that returns true ends
	// its process's script.
	Scripts map[memsim.PID][]memsim.CallKind
	// MaxDepth bounds the schedule depth in scheduling choices (steps plus
	// call starts); histories cut off at the bound still count, so the
	// worst case is over all histories of at most MaxDepth choices. The
	// zero value means 12.
	MaxDepth int
	// Model is the cost model whose RMR total is maximized; nil means the
	// DSM model. Exhaustive mode requires the model's accumulators to
	// implement model.ForkableAccumulator and model.ModelStateAppender
	// (all models in this repository do); sample mode accepts any Scorer.
	Model model.Scorer
	// Mode selects exhaustive enumeration or Monte Carlo sampling; the
	// zero value is ModeExhaustive.
	Mode Mode
	// Workers is the number of parallel search workers (exhaustive mode:
	// work-stealing subtree handoff; sample mode: walk batches). Zero or
	// negative means GOMAXPROCS. Every Result field is deterministic for
	// any worker count.
	Workers int
	// Reduce enables partial-order and symmetry reduction (exhaustive mode
	// only): sleep-set commutation pruning over the independence relation
	// of internal/engine/reduce.go, and canonicalization of PID-permuted
	// states for workloads declaring memsim.SymmetricInstance roles.
	// Reductions are cost-safe only when the model asserts the matching
	// capability (model.OrderInvariantCost for pruning, additionally
	// model.PermutationInvariantCost for symmetry) and are conservatively
	// off otherwise. WorstCost is unchanged; the Witness still replays to
	// exactly WorstCost but is no longer the lexicographically least such
	// schedule, and Paths/Pruned shrink to the reduced space.
	Reduce bool
	// Seed is the base seed of sample mode; walk i derives its own
	// generator from (Seed, i), so the whole sample is a pure function of
	// (Config, Seed).
	Seed int64
	// Walks is the number of random walks sample mode performs (zero
	// means 512).
	Walks int
	// Meter, when non-nil, receives batched node-visit ticks from the
	// exhaustive engine so a CLI can report states/sec on stderr. It has
	// no effect on the Result.
	Meter *telemetry.Meter
	// Telemetry, when non-nil, receives batched engine, frontier and
	// checkpoint counters (see docs/ARCHITECTURE.md, "Observability").
	// It is a monotone write-only side-channel: nothing in the search
	// reads it back, and every Result field is byte-identical with or
	// without it.
	Telemetry *telemetry.Registry
	// Faults bounds the fault dimension of the schedule space: schedules
	// may additionally crash a process at a pending access, or drop the
	// response of a succeeding CAS, up to Faults.Max faults per schedule
	// — the worst case under at most k faults. The zero policy is
	// disabled and leaves results, state keys and checkpoint fingerprints
	// byte-identical to a fault-free search.
	Faults memsim.FaultPolicy
}

// Quantiles summarizes the sampled cost distribution (nearest-rank).
type Quantiles struct {
	P50 int `json:"p50"`
	P90 int `json:"p90"`
	P99 int `json:"p99"`
}

// Result is the outcome of a worst-case search. Every field is a
// deterministic function of the Config (worker count included).
type Result struct {
	// Mode is the mode that ran.
	Mode Mode `json:"mode"`
	// Model names the cost model that was maximized.
	Model string `json:"model"`
	// WorstCost is the maximal RMR total found: exact over all schedules
	// within MaxDepth in exhaustive mode, the sampled maximum in sample
	// mode.
	WorstCost int `json:"worstCost"`
	// Witness is the choice-index sequence of the worst schedule — the
	// lexicographically least one achieving WorstCost in exhaustive mode,
	// the lexicographically least among the sampled maxima in sample
	// mode. Replay re-executes and re-prices it.
	Witness []int `json:"witness"`
	// Schedule renders the witness human-readably ("p0+" starts p0's next
	// call, "p0" applies its pending access), like the explorer's
	// counterexample schedules.
	Schedule []string `json:"schedule"`
	// WitnessTruncated reports whether the witness history was cut off by
	// MaxDepth (it could extend, and possibly cost more, with a deeper
	// bound).
	WitnessTruncated bool `json:"witnessTruncated"`
	// Paths is the number of maximal histories scored: distinct leaves of
	// the memoized search DAG in exhaustive mode, Walks in sample mode.
	Paths int `json:"paths"`
	// Truncated counts scored histories cut off by MaxDepth.
	Truncated int `json:"truncated"`
	// Pruned counts subtree arrivals cut because their (canonical state,
	// remaining budget) pair was already memoized (exhaustive mode only).
	Pruned int `json:"pruned"`
	// MaxDepthReached is the deepest scheduling-choice depth attained.
	MaxDepthReached int `json:"maxDepthReached"`
	// Reduced reports that the run used partial-order/symmetry reduction
	// (Config.Reduce with a capable model), the regime under which the
	// Witness is a worst-case schedule but not the lexicographically least.
	Reduced bool `json:"reduced,omitempty"`
	// StepsSlept counts children skipped by sleep-set commutation pruning;
	// SymmetryMerges counts memo-key computations in which some symmetric
	// group held at least two distinct member states (a genuine
	// PID-permutation orbit merged). Both are zero without Reduce and
	// deterministic for any worker count.
	StepsSlept     int `json:"stepsSlept,omitempty"`
	SymmetryMerges int `json:"symmetryMerges,omitempty"`
	// Workers is the worker count that ran (Config default resolved).
	Workers int `json:"workers"`
	// Seed and Walks echo the sampling parameters (zero in exhaustive
	// mode), so a reported number carries everything needed to reproduce
	// it. Deliberately not omitempty: seed 0 is a legal sampling seed and
	// must serialize distinguishably from seed-not-recorded.
	Seed  int64 `json:"seed"`
	Walks int   `json:"walks"`
	// MeanCost and Q summarize the sampled cost distribution (sample mode
	// only; Q is nil in exhaustive mode).
	MeanCost float64    `json:"meanCost"`
	Q        *Quantiles `json:"quantiles,omitempty"`
}

// Run searches for the worst-case schedule of cfg. In exhaustive mode the
// result is exact (and the witness lexicographically least); in sample
// mode it is the seeded Monte Carlo summary. The returned witness always
// replays to exactly WorstCost — Run verifies this internally before
// returning.
func Run(cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}

	var res *Result
	switch cfg.Mode {
	case ModeExhaustive:
		res, err = runExhaustive(cfg)
	case ModeSample:
		res, err = runSample(cfg)
	default:
		return nil, fmt.Errorf("search: unknown mode %d", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	if err := auditResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// normalize validates cfg and resolves every defaulted field, so the
// plain, checkpointed and sharded run paths all see the same resolved
// configuration.
func normalize(cfg Config) (Config, error) {
	if cfg.Factory == nil {
		return cfg, errors.New("search: config requires a Factory")
	}
	if cfg.N < 1 {
		return cfg, fmt.Errorf("search: need at least 1 process, got %d", cfg.N)
	}
	if err := engine.CheckScripts(cfg.N, cfg.Scripts); err != nil {
		return cfg, fmt.Errorf("search: %w", err)
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.Model == nil {
		cfg.Model = model.ModelDSM
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeExhaustive
	}
	if cfg.Reduce && cfg.Mode != ModeExhaustive {
		return cfg, errors.New("search: Reduce applies to exhaustive mode only (sampling explores no state space to reduce)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Walks <= 0 {
		cfg.Walks = 512
	}
	return cfg, nil
}

// auditResult is the self-audit every run path ends with: the witness
// must re-price to exactly the reported worst cost on the independent
// replay path. A mismatch means an engine bug (a memo key that merged
// states with different futures), never a caller error. On success the
// replay's rendered schedule and truncation flag land in res.
func auditResult(cfg Config, res *Result) error {
	rep, err := Replay(cfg, res.Witness)
	if err != nil {
		return fmt.Errorf("search: internal: witness replay failed: %w", err)
	}
	if rep.Cost.Total != res.WorstCost {
		return fmt.Errorf("search: internal: witness replays to %d RMRs, engine reported %d",
			rep.Cost.Total, res.WorstCost)
	}
	res.Schedule = rep.Schedule
	res.WitnessTruncated = rep.Truncated
	return nil
}
