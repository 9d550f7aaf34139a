package explore

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// replayRun is the reference enumeration the backtracking engines are
// checked against: it replays every path from a fresh deployment on a
// memsim.Execution through engine.Driver, not on the node-expansion core,
// advancing in lexicographic order (work ≈ paths × depth). Engine is left
// zero in its Result.
func replayRun(cfg Config) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: 1}
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
	drv := engine.NewDriver(exec, cfg.Scripts, cfg.Faults)
	var choiceSets [][]engine.Choice
	for depth := 0; ; depth++ {
		choices, err := drv.Settle()
		if err != nil {
			exec.Close()
			return nil, nil, false, err
		}
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
		if err := drv.Apply(choices[idx]); err != nil {
			exec.Close()
			return nil, nil, false, err
		}
	}
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
