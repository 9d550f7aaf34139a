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
	return drive(cfg, len(witness), func(depth int, n int) int {
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
// PID with a pending step before a call start. size is the expected
// history length, for which the result's per-depth slices are made up
// front (0 when unknown: they grow with the history).
func drive(cfg Config, size int, choose func(depth, n int) int) (*ReplayResult, error) {
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
	defer exec.Release() // the result keeps the trace, which Release never recycles
	acc := cfg.Model.Begin(cfg.N, exec.Machine().OwnerFunc())
	exec.Attach(func(ev memsim.Event) { acc.Add(ev) })

	res := &ReplayResult{}
	if size = min(size, cfg.MaxDepth); size > 0 {
		res.Path = make([]int, 0, size)
		res.Schedule = make([]string, 0, size)
		res.ChoiceCounts = make([]int, 0, size)
	}
	drv := engine.NewDriver(exec, cfg.Scripts, cfg.Faults)
	for depth := 0; ; depth++ {
		choices, err := drv.Settle()
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
		if err := drv.Apply(choices[idx]); err != nil {
			return nil, err
		}
		res.Path = append(res.Path, idx)
		res.Schedule = append(res.Schedule, choices[idx].String())
		res.ChoiceCounts = append(res.ChoiceCounts, len(choices))
	}
	res.Events = exec.Events()
	res.Cost = model.FinalReport(acc)
	return res, nil
}
