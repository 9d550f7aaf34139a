package search

import (
	"errors"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
)

// Cross-process sharding: a coordinator partitions the unit list (the
// same internal depth-d prefixes checkpointed runs commit sequentially)
// across worker processes, each of which computes its units against a
// private, per-unit memo table and ships back only the unit root's exact
// answer plus the unit's counter tally. Because a fresh-table unit is a
// pure function of (configuration, prefix), every shipped UnitResult —
// and therefore the merged totals — is deterministic for ANY worker
// count and ANY assignment of units to workers. The coordinator preloads
// the unit-root entries and runs the ordinary spine pass, so the merged
// WorstCost and lexicographically least Witness are exactly the
// single-process answers (each memo entry is the exact subtree optimum,
// however it was computed). The Paths/Pruned tallies form their own
// deterministic regime: units no longer share interior states with each
// other, so cross-unit dedup that the shared table would have counted as
// prunes is recomputed instead. Snapshots of a sharded run carry a
// "|sharded"-suffixed fingerprint so the two regimes can never resume
// into each other.

// UnitResult is one worker's answer for one unit: the exact entry for
// the unit's root and the counters its private-table computation tallied.
// It is the entire cross-process payload, shipped as one JSON line.
type UnitResult struct {
	Prefix   []int               `json:"prefix"`
	Entry    checkpoint.Entry    `json:"entry"`
	Counters checkpoint.Counters `json:"counters"`
}

// ComputeUnit computes one unit against a fresh private table. The
// prefix must name an internal node (ExpandUnits only emits those);
// handing it a leaf is a coordinator bug.
func ComputeUnit(cfg Config, prefix []int) (*UnitResult, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeExhaustive {
		return nil, errs.Failure(errs.CodeInvalid, "search: only exhaustive mode shards")
	}
	w, err := newHunter(newBnb(cfg), engine.NewPool(checkpoint.KindSearch, 1, nil, nil), 0)
	if err != nil {
		return nil, err
	}
	sleep, err := w.e.Descend(w.Red, prefix)
	var bad *engine.PrefixError
	if errors.As(err, &bad) {
		return nil, errs.Failuref(errs.CodeInvalid, "search: unit %v", err)
	}
	if err != nil {
		return nil, err
	}
	budget := cfg.MaxDepth - len(prefix)
	if budget <= 0 || len(w.e.SettleAt(len(prefix))) == 0 {
		return nil, errs.Defectf("search: unit %v is a leaf, not an internal node", prefix)
	}
	key, _ := w.e.Key(w.Red, sleep)
	cost, tail, err := w.dfs(len(prefix), sleep, false)
	if err != nil {
		return nil, err
	}
	return &UnitResult{
		Prefix: append([]int(nil), prefix...),
		Entry: checkpoint.Entry{
			State:  key,
			Budget: budget,
			Cost:   cost,
			Tail:   tail,
			// Adopted stays false: in the merged table the first spine (or
			// sibling-unit) edge visit adopts the entry, exactly as a
			// prefetch-computed entry behaves in-process.
		},
		Counters: w.Counters,
	}, nil
}

// MergeUnits assembles the full Result from one UnitResult per unit: sum
// the unit counters, preload the unit-root entries, run the spine pass,
// and audit the witness by replay. Passing a result for every unit of
// ExpandUnits(cfg, d) makes the outcome independent of how units were
// assigned to workers.
func MergeUnits(cfg Config, results []*UnitResult) (*Result, error) {
	counters := checkpoint.Counters{}
	entries := make([]checkpoint.Entry, 0, len(results))
	for _, r := range results {
		if r == nil {
			return nil, errs.Failure(errs.CodeInvalid, "search: merge received a missing unit result")
		}
		counters.Add(r.Counters)
		entries = append(entries, r.Entry)
	}
	return MergeShardedState(cfg, entries, counters)
}

// MergeShardedState is MergeUnits on pre-accumulated state: the union of
// unit-root entries and the summed unit counters, as a resumable sharded
// coordinator persists them. Entry values are pure functions of their
// (state, budget) keys, so a pair listed twice (two units rooted at the
// same pair) loads once, from its first entry.
func MergeShardedState(cfg Config, entries []checkpoint.Entry, counters checkpoint.Counters) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	s := newBnb(cfg)
	s.preload(entries)
	w, err := newHunter(s, engine.NewPool(checkpoint.KindSearch, 1, nil, nil), 0)
	if err != nil {
		return nil, err
	}
	if err := w.runTask(nil); err != nil {
		return nil, err
	}
	counters.Add(w.Counters)
	// Under reduction only unit-root entries were shipped, so the witness
	// descent recomputes the interior of whichever units it threads
	// through (bounded by one subtree per level; tallies are not counted).
	res, err := s.result(w, counters)
	if err != nil {
		return nil, err
	}
	if err := auditResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
