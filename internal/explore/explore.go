package explore

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// Engine selects how the schedule tree is enumerated.
type Engine int

// The exploration engines.
const (
	// EngineAuto picks backtracking with state dedup
	// (EngineBacktrackDedup).
	EngineAuto Engine = iota
	// EngineBacktrack is the backtracking DFS without state dedup: it
	// visits every maximal history of the schedule tree (in
	// lexicographic order when Workers is 1; sharded across workers
	// otherwise, with identical Result counts either way).
	EngineBacktrack
	// EngineBacktrackDedup additionally skips subtrees whose root
	// (canonical state, remaining depth budget) pair has already been
	// claimed by the exploration, which is what unlocks larger
	// configurations. The claim-once rule makes the set of explored
	// subtrees — and therefore every Result counter — a function of the
	// configuration alone, independent of traversal order, so any number
	// of Workers returns identical results. The canonical state includes
	// the Specification 4.1 monitor bits (whether a Signal has
	// begun/completed, and whether each open call began after the first
	// completed Signal), so pruning is sound for CheckSpec and any other
	// property that is a function of that state plus the continuation; a
	// Check that conditions on other prefix details should use
	// EngineBacktrack.
	EngineBacktrackDedup
	// EngineBacktrackDedupPOR layers partial-order and symmetry reduction
	// on top of dedup: sleep sets skip children whose schedules only
	// commute (by swapping adjacent independent steps) into subtrees
	// explored elsewhere, and states of workloads that declare symmetric
	// process roles (memsim.SymmetricInstance) are canonicalized under PID
	// permutation before claiming. Paths and Truncated then count only the
	// representatives actually explored (typically far fewer), while Check
	// outcomes and violation presence are preserved for the same property
	// class dedup supports — trace properties invariant under commuting
	// independent steps and renaming symmetric processes, which CheckSpec
	// is. Counters remain deterministic across worker counts.
	EngineBacktrackDedupPOR
)

// String names the engine for reports and CLIs.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBacktrack:
		return "backtracking"
	case EngineBacktrackDedup:
		return "backtracking+dedup"
	case EngineBacktrackDedupPOR:
		return "backtracking+dedup+por"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Config describes the workload to explore.
type Config struct {
	// Factory deploys the algorithm instance (must be deterministic).
	Factory memsim.Factory
	// N is the number of processes on the machine.
	N int
	// Scripts assigns each participating process the sequence of calls
	// it makes. Processes absent from the map take no steps.
	Scripts map[memsim.PID][]memsim.CallKind
	// MaxDepth bounds the explored depth in scheduling choices (steps
	// plus call starts). Histories cut off at the bound are still
	// checked — every prefix is a valid history.
	MaxDepth int
	// Check is invoked on each maximal history; returning an error
	// aborts the exploration and is reported with the offending
	// schedule. The backtracking engines call Check concurrently from
	// every worker (and Workers defaults to GOMAXPROCS), so Check must
	// be safe for concurrent use — a pure function of events, like
	// signal.CheckSpec, is. events is a live per-worker buffer reused
	// between histories; Check must not retain it after returning.
	Check func(events []memsim.Event) error
	// Engine selects the enumeration strategy; the zero value is
	// EngineAuto.
	Engine Engine
	// Workers is the number of exploration workers the engines shard the
	// schedule tree across (a work-stealing pool; each worker owns a
	// private execution, frame snapshots and undo log, and all workers
	// share the claim-once dedup table). Zero or negative means
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int
	// Faults bounds the fault dimension of the schedule space: schedules
	// may additionally crash a process at a pending access, or drop the
	// response of a succeeding CAS, up to Faults.Max faults per schedule.
	// The zero policy is disabled and leaves every engine's behavior —
	// results, state keys, checkpoint fingerprints — byte-identical to a
	// fault-free exploration.
	Faults memsim.FaultPolicy
	// Telemetry, when non-nil, receives batched engine, frontier and
	// checkpoint counters (see docs/ARCHITECTURE.md, "Observability").
	// It is a monotone write-only side-channel: nothing in the
	// exploration reads it back, and every Result field is
	// byte-identical with or without it.
	Telemetry *telemetry.Registry
}

// Result summarizes an exploration.
type Result struct {
	// Paths is the number of maximal histories checked.
	Paths int
	// Truncated counts histories cut off by MaxDepth.
	Truncated int
	// StatesDeduped counts subtrees skipped because their root
	// (canonical state, remaining budget) pair had already been claimed
	// by the exploration (always 0 on the plain backtracking engine). Like every other counter it is deterministic: the same
	// configuration yields the same count for any worker count.
	StatesDeduped int
	// MaxDepthReached is the deepest scheduling-choice depth any explored
	// path attained.
	MaxDepthReached int
	// StepsSlept counts children skipped by sleep-set commutation pruning
	// (always 0 outside EngineBacktrackDedupPOR). Deterministic across
	// worker counts: sleeping children are skipped only at claimed nodes.
	StepsSlept int
	// SymmetryMerges counts state-key canonicalizations that applied a
	// non-identity PID permutation — each is a visit that would have keyed
	// a distinct state without symmetry reduction. Always 0 outside
	// EngineBacktrackDedupPOR; deterministic across worker counts.
	SymmetryMerges int
	// Engine is the engine that actually ran (EngineAuto resolved).
	Engine Engine
	// Workers is the number of exploration workers that ran (Config
	// default resolved).
	Workers int
}

// Run exhaustively enumerates schedules on the configured engine (see
// Engine; the default is backtracking with state dedup). With one worker
// the traversal is depth-first lexicographic; with several it is sharded
// work-stealing — visit order then varies run to run, but every Result
// counter and every Check outcome is identical, and a reported
// counterexample is the lexicographically least among the failures found
// before the abort.
func Run(cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Engine {
	case EngineBacktrack:
		return runBacktrack(cfg, false, false)
	case EngineBacktrackDedupPOR:
		return runBacktrack(cfg, true, true)
	default:
		return runBacktrack(cfg, true, false)
	}
}

// normalize validates cfg and resolves its defaults, for the plain and
// checkpointed run paths alike.
func normalize(cfg Config) (Config, error) {
	if cfg.Factory == nil || cfg.Check == nil {
		return cfg, errors.New("explore: config requires Factory and Check")
	}
	if err := engine.CheckScripts(cfg.N, cfg.Scripts); err != nil {
		return cfg, fmt.Errorf("explore: %w", err)
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}
