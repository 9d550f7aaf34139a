package search

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
)

// ReplayResult is the outcome of re-executing one schedule.
type ReplayResult struct {
	// Events is the full execution trace.
	Events []memsim.Event
	// Path is the complete choice-index sequence that ran (the input
	// witness, extended with first choices if it was a proper prefix).
	Path []int
	// Schedule renders Path human-readably ("p0+"/"p0").
	Schedule []string
	// ChoiceCounts[i] is the size of the scheduling choice set at depth i
	// (enumeration callers use it to advance to sibling schedules).
	ChoiceCounts []int
	// Truncated reports whether MaxDepth cut the history short.
	Truncated bool
	// Cost is the history priced under cfg.Model through the streaming
	// accumulator path.
	Cost *model.Report
}

// Replay re-executes the witness schedule on a fresh memsim.Execution —
// an independent driver from the search engine, using whichever engine
// tier the instance provides — and prices it through cfg.Model's
// streaming accumulator. A witness shorter than a maximal history is
// extended with first choices; an out-of-range choice index is an error.
// The whole search stack rests on this being exact: Run self-audits every
// reported worst cost against it, and the property tests compare it to
// brute-force enumeration.
func Replay(cfg Config, witness []int) (*ReplayResult, error) {
	return drive(cfg, func(depth int, n int) int {
		if depth < len(witness) {
			return witness[depth]
		}
		return 0
	})
}

// drive runs one schedule on an Execution, asking choose for the choice
// index at each depth (given the choice-set size). It mirrors the search
// engine's settle semantics exactly: completed calls harvest eagerly, a
// Poll returning true ends its process's script, and choices order by
// PID with a pending step before a call start.
func drive(cfg Config, choose func(depth, n int) int) (*ReplayResult, error) {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.Model == nil {
		cfg.Model = model.ModelDSM
	}
	exec, err := memsim.NewExecution(cfg.Factory, cfg.N)
	if err != nil {
		return nil, err
	}
	defer exec.Close()
	acc := cfg.Model.Begin(cfg.N, exec.Machine().Owner)
	exec.Attach(func(ev memsim.Event) { acc.Add(ev) })

	res := &ReplayResult{}
	progress := make(map[memsim.PID]int, len(cfg.Scripts))
	kinds := make(map[memsim.PID]memsim.CallKind, len(cfg.Scripts))
	depth, faultsUsed := 0, 0
	for {
		choices, err := settleExec(exec, cfg.Scripts, progress, kinds, cfg.Faults, faultsUsed)
		if err != nil {
			return nil, err
		}
		if len(choices) == 0 {
			break
		}
		if depth >= cfg.MaxDepth {
			res.Truncated = true
			break
		}
		idx := choose(depth, len(choices))
		if idx < 0 || idx >= len(choices) {
			return nil, fmt.Errorf("search: witness choice %d out of range at depth %d (have %d choices)",
				idx, depth, len(choices))
		}
		c := choices[idx]
		switch c.Fault {
		case memsim.FaultCrash:
			if _, err := exec.Crash(c.PID, cfg.Faults.Vol); err != nil {
				return nil, err
			}
			// The crashed call never completed; the same scripted call
			// restarts on the process's next start choice.
			progress[c.PID]--
			faultsUsed++
		case memsim.FaultLostCAS:
			if _, err := exec.StepLostCAS(c.PID); err != nil {
				return nil, err
			}
			faultsUsed++
		default:
			if c.Start {
				kind := cfg.Scripts[c.PID][progress[c.PID]]
				if err := exec.Start(c.PID, kind); err != nil {
					return nil, err
				}
				kinds[c.PID] = kind
				progress[c.PID]++
			} else if _, err := exec.Step(c.PID); err != nil {
				return nil, err
			}
		}
		res.Path = append(res.Path, idx)
		res.Schedule = append(res.Schedule, c.String())
		res.ChoiceCounts = append(res.ChoiceCounts, len(choices))
		depth++
	}
	res.Events = exec.Events()
	res.Cost = model.FinalReport(acc)
	return res, nil
}

// settleExec collects completed calls (eagerly, with the poll-stop rule)
// and returns the open scheduling choices in deterministic order — the
// Execution-based mirror of the core engine's Settle, fault choice points included
// (appended after every regular choice: PID order, crash before lost CAS).
func settleExec(exec *memsim.Execution, scripts map[memsim.PID][]memsim.CallKind,
	progress map[memsim.PID]int, kinds map[memsim.PID]memsim.CallKind,
	fp memsim.FaultPolicy, faultsUsed int) ([]engine.Choice, error) {
	var choices []engine.Choice
	for pid := 0; pid < exec.N(); pid++ {
		p := memsim.PID(pid)
		script, ok := scripts[p]
		if !ok {
			continue
		}
		if _, done := exec.CallEnded(p); done {
			ret, err := exec.Finish(p)
			if err != nil {
				return nil, err
			}
			if kinds[p] == memsim.CallPoll && ret != 0 {
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
	if fp.Enabled() && faultsUsed < fp.Max {
		for pid := 0; pid < exec.N(); pid++ {
			p := memsim.PID(pid)
			acc, ok := exec.Pending(p)
			if !ok {
				continue
			}
			if fp.Kinds.Has(memsim.FaultCrash) {
				choices = append(choices, engine.Choice{PID: p, Fault: memsim.FaultCrash})
			}
			// A lost CAS is only distinguishable from a plain failed CAS
			// when the CAS would have succeeded.
			if fp.Kinds.Has(memsim.FaultLostCAS) && acc.Op == memsim.OpCAS &&
				exec.Machine().Load(acc.Addr) == acc.Arg1 {
				choices = append(choices, engine.Choice{PID: p, Fault: memsim.FaultLostCAS})
			}
		}
	}
	return choices, nil
}
