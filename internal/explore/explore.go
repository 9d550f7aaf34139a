package explore

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/telemetry"
)

// Engine selects how the schedule tree is enumerated.
type Engine int

// The exploration engines.
const (
	// EngineAuto picks backtracking with state dedup when the deployed
	// instance provides resumable programs for every scripted call, and
	// falls back to the replay engine otherwise.
	EngineAuto Engine = iota
	// EngineReplay is the legacy enumeration: replay the shared prefix
	// for every path (work ≈ paths × depth).
	EngineReplay
	// EngineBacktrack is the backtracking DFS without state dedup: it
	// visits exactly the histories EngineReplay visits (in the same
	// order when Workers is 1; sharded across workers otherwise, with
	// identical Result counts either way) — the A/B configuration of
	// the equivalence tests.
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
	// EngineBacktrack or EngineReplay.
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
	case EngineReplay:
		return "replay"
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
	// Workers is the number of exploration workers the backtracking
	// engines shard the schedule tree across (a work-stealing pool; each
	// worker owns a private execution, frame snapshots and undo log, and
	// all workers share the claim-once dedup table). Zero or negative
	// means GOMAXPROCS. Results are identical for every worker count;
	// the replay engine ignores Workers and always runs sequentially.
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
	// byte-identical with or without it. The replay engine ignores it.
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
	// by the exploration (always 0 on the replay and plain backtracking
	// engines). Like every other counter it is deterministic: the same
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
	// default resolved; always 1 on the replay engine).
	Workers int
}

// Run exhaustively enumerates schedules on the configured engine (see
// Engine; the default picks backtracking with state dedup whenever the
// algorithm has a resumable tier). With one worker the traversal is
// depth-first lexicographic; with several it is sharded work-stealing —
// visit order then varies run to run, but every Result counter and every
// Check outcome is identical, and a reported counterexample is the
// lexicographically least among the failures found before the abort.
func Run(cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	switch cfg.Engine {
	case EngineReplay:
		return runReplay(cfg)
	case EngineBacktrack:
		return runBacktrack(cfg, false, false)
	case EngineBacktrackDedup:
		return runBacktrack(cfg, true, false)
	case EngineBacktrackDedupPOR:
		if !backtrackable(cfg) {
			return nil, errors.New("explore: EngineBacktrackDedupPOR requires a resumable instance")
		}
		return runBacktrack(cfg, true, true)
	default:
		if backtrackable(cfg) {
			return runBacktrack(cfg, true, false)
		}
		return runReplay(cfg)
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
	return cfg, nil
}

// runReplay is the legacy engine: enumerate schedules by replaying the
// shared prefix of adjacent paths, which keeps total work near
// paths × depth. Blocking programs run on (pooled) goroutines.
func runReplay(cfg Config) (*Result, error) {
	res := &Result{Engine: EngineReplay, Workers: 1}
	var path []int // path[i]: index into the choice set at depth i
	for {
		exec, choiceSets, truncated, err := replayPath(cfg, path)
		if err != nil {
			return nil, err
		}
		res.Paths++
		if truncated {
			res.Truncated++
		}
		if len(choiceSets) > res.MaxDepthReached {
			res.MaxDepthReached = len(choiceSets)
		}
		if err := cfg.Check(exec.Events()); err != nil {
			schedule := describeSchedule(choiceSets, path)
			exec.Close()
			return res, fmt.Errorf("explore: property failed on schedule %v: %w", schedule, err)
		}
		exec.Close()
		// Advance to the lexicographically next path. The replay extended
		// the explicit path with implicit first choices, so siblings may
		// exist at any depth up to len(choiceSets).
		full := make([]int, len(choiceSets))
		copy(full, path)
		next := -1
		for i := len(full) - 1; i >= 0; i-- {
			if full[i]+1 < len(choiceSets[i]) {
				next = i
				break
			}
		}
		if next < 0 {
			return res, nil
		}
		path = append(full[:next], full[next]+1)
	}
}

// replayPath replays the choice sequence, extending it greedily with
// first-choice decisions until the workload quiesces or the bound trips.
// It returns the execution, the choice set observed at each depth (for
// sibling enumeration), and whether the bound cut the history short.
func replayPath(cfg Config, path []int) (*memsim.Execution, [][]engine.Choice, bool, error) {
	exec, err := memsim.NewExecution(cfg.Factory, cfg.N)
	if err != nil {
		return nil, nil, false, err
	}
	progress := make(map[memsim.PID]int, len(cfg.Scripts))
	var choiceSets [][]engine.Choice
	depth, faultsUsed := 0, 0
	for {
		choices, err := settle(exec, cfg.Scripts, progress)
		if err != nil {
			exec.Close()
			return nil, nil, false, err
		}
		choices = appendFaultChoices(choices, exec, cfg.Faults, faultsUsed)
		if len(choices) == 0 {
			return exec, choiceSets, false, nil
		}
		if depth >= cfg.MaxDepth {
			return exec, choiceSets, true, nil
		}
		idx := 0
		if depth < len(path) {
			idx = path[depth]
		}
		if idx >= len(choices) {
			exec.Close()
			return nil, nil, false, fmt.Errorf("explore: choice %d out of range at depth %d", idx, depth)
		}
		choiceSets = append(choiceSets, choices)
		c := choices[idx]
		switch {
		case c.Fault == memsim.FaultCrash:
			if _, err := exec.Crash(c.PID, cfg.Faults.Vol); err != nil {
				exec.Close()
				return nil, nil, false, err
			}
			progress[c.PID]-- // the crashed call restarts from the top
			faultsUsed++
		case c.Fault == memsim.FaultLostCAS:
			if _, err := exec.StepLostCAS(c.PID); err != nil {
				exec.Close()
				return nil, nil, false, err
			}
			faultsUsed++
		case c.Start:
			if err := exec.Start(c.PID, cfg.Scripts[c.PID][progress[c.PID]]); err != nil {
				exec.Close()
				return nil, nil, false, err
			}
			progress[c.PID]++
		default:
			if _, err := exec.Step(c.PID); err != nil {
				exec.Close()
				return nil, nil, false, err
			}
		}
		depth++
	}
}

// appendFaultChoices appends the fault choice points the policy admits
// in the current state: after every regular choice (so fault-free
// enumeration is a prefix and k=0 is byte-identical to a disabled
// policy), one crash choice per process with a pending access and one
// lost-CAS choice per process whose pending CAS would succeed, in PID
// order with the crash before the lost CAS.
func appendFaultChoices(choices []engine.Choice, exec *memsim.Execution, fp memsim.FaultPolicy, faultsUsed int) []engine.Choice {
	if !fp.Enabled() || faultsUsed >= fp.Max {
		return choices
	}
	for pid := 0; pid < exec.N(); pid++ {
		p := memsim.PID(pid)
		acc, ok := exec.Pending(p)
		if !ok {
			continue
		}
		if fp.Kinds.Has(memsim.FaultCrash) {
			choices = append(choices, engine.Choice{PID: p, Fault: memsim.FaultCrash})
		}
		if fp.Kinds.Has(memsim.FaultLostCAS) && acc.Op == memsim.OpCAS &&
			exec.Machine().Load(acc.Addr) == acc.Arg1 {
			choices = append(choices, engine.Choice{PID: p, Fault: memsim.FaultLostCAS})
		}
	}
	return choices
}

// settle collects completed calls (eagerly, so call-end events get the
// earliest consistent position) and returns the open scheduling choices in
// deterministic order: for each process, a pending step or a call start.
func settle(exec *memsim.Execution, scripts map[memsim.PID][]memsim.CallKind, progress map[memsim.PID]int) ([]engine.Choice, error) {
	var choices []engine.Choice
	for pid := 0; pid < exec.N(); pid++ {
		p := memsim.PID(pid)
		script, ok := scripts[p]
		if !ok {
			continue
		}
		if _, done := exec.CallEnded(p); done {
			wasPoll := lastCallWasPoll(exec, p)
			ret, err := exec.Finish(p)
			if err != nil {
				return nil, err
			}
			if wasPoll && ret != 0 {
				// The waiter observed the signal; the problem statement
				// says it stops polling.
				progress[p] = len(script)
			}
		}
		if _, ok := exec.Pending(p); ok {
			choices = append(choices, engine.Choice{PID: p})
			continue
		}
		if exec.Idle(p) && progress[p] < len(script) {
			choices = append(choices, engine.Choice{PID: p, Start: true})
		}
	}
	return choices, nil
}

// lastCallWasPoll reports whether p's just-completed call was a Poll.
func lastCallWasPoll(exec *memsim.Execution, p memsim.PID) bool {
	events := exec.Events()
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].PID == p && events[i].Kind == memsim.EvCallStart {
			return events[i].Proc == "Poll"
		}
	}
	return false
}

func describeSchedule(choiceSets [][]engine.Choice, path []int) []string {
	var out []string
	for i := 0; i < len(choiceSets); i++ {
		idx := 0
		if i < len(path) {
			idx = path[i]
		}
		if idx < len(choiceSets[i]) {
			out = append(out, choiceSets[i][idx].String())
		}
	}
	return out
}
