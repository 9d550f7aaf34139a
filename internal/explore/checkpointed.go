package explore

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
)

// Checkpointed exploration runs on the engine's unit layer (see
// internal/engine/units.go), with one structural difference from the
// search's: exploration has no bottom-up answer to assemble, so the
// shallow tree is processed FIRST — the plan is the ordinary counting
// DFS cut at the shard depth, claiming and counting exactly as the plain
// engine would, and each internal shard-depth node it wins becomes one
// unit. Units then replay their prefix purely and expand the children —
// the unit root itself was already counted and claimed by the shallow
// pass. The persisted unit list doubles as the record of the shallow
// pass: a resumed run never re-runs it, which is what keeps every claim
// and every tally exactly-once across kills.
//
// The equivalence argument is the explorer's own worker-independence
// argument re-applied: the explored set is the set of distinct
// (canonical state, budget) pairs reachable from the root — a function
// of the configuration — and each counter counts tree edges into that
// set, so any partition of the traversal that preserves claim-once
// reproduces the plain Result exactly. Failing runs are the exception:
// a property violation aborts mid-traversal, so its partial counters
// (though not the violation itself) depend on the decomposition.

// Checkpoint configures a durable exploration.
type Checkpoint = engine.Checkpoint

// Fingerprint renders the configuration identity an exploration
// snapshot is bound to. The resolved engine is included: dedup and
// reduction change every counter, so the regimes must never resume into
// each other.
func Fingerprint(tag string, cfg Config, shardDepth int, dedup, reduce bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explore|%s|n=%d|depth=%d|engine=%s|shard=%d|scripts=",
		tag, cfg.N, cfg.MaxDepth, engineOf(dedup, reduce), shardDepth)
	if cfg.Faults.Enabled() {
		// Fault configs must never resume into fault-free snapshots (or
		// vice versa): the marker is appended only when enabled, keeping
		// k=0 fingerprints byte-identical to pre-fault ones.
		fmt.Fprintf(&b, "faults[%s]|", cfg.Faults)
	}
	engine.WriteScripts(&b, cfg.N, cfg.Scripts)
	return b.String()
}

// runUnit replays the unit's prefix (pure positioning) and expands its
// children. The unit root was counted, claimed and (if failing) checked
// by the shallow pass, so the expansion starts one level below it.
func (w *searcher) runUnit(t task) error {
	sleep, err := w.Start(t)
	if err != nil {
		return err
	}
	choices := w.e.SettleAt(len(t))
	if w.Red.POR() {
		// Recompute the unit root's key only to refresh the canonical
		// ranks for the child loop.
		w.Red.StateKey(sleep)
	}
	return w.expand(len(t), choices, sleep)
}

// RunCheckpointed runs a backtracking exploration durably: a shallow
// pass enumerates units, units commit in order with snapshots between
// commits, and a killed run resumes to the byte-identical Result of an
// uninterrupted (or plain) run. Every engine checkpoints. Interruption
// (ck.Interrupt or ck.StopAfter) returns an error classified as
// errs.ClassInterrupt.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "explore: checkpoint requires a path")
	}
	dedup, reduce := cfg.Engine != EngineBacktrack, cfg.Engine == EngineBacktrackDedupPOR
	d := engine.ClampShardDepth(ck.ShardDepth, cfg.MaxDepth)

	s := newSearch(cfg, engine.NewPool(checkpoint.KindExplore, 1, nil, nil), dedup)
	defer s.release()
	w, err := newSearcher(s, 0, reduce)
	if err != nil {
		return nil, err
	}
	run := engine.Durable{
		Kind:        checkpoint.KindExplore,
		Fingerprint: Fingerprint(ck.Tag, cfg, d, dedup, reduce),
		ShardDepth:  d,
		Telemetry:   cfg.Telemetry,
		Worker:      &w.Worker,
		// The shallow pass: everything above (and at) the shard depth is
		// counted and claimed now, once; the snapshot RunUnits writes
		// right after it is the only record of it a resumed run needs.
		Plan: func(resumed *checkpoint.Snapshot) ([][]int, error) {
			if resumed != nil {
				return resumed.Units, nil
			}
			w.cut = d
			err := w.dfs(0, 0)
			w.cut = -1
			return w.units, err
		},
		Unit: w.runUnit,
	}
	if s.table != nil {
		run.Export = func() []checkpoint.Entry { return s.table.Export(nil) }
		run.Preload = func(entries []checkpoint.Entry) error { return s.table.Preload(entries, nil) }
	}
	counters, err := engine.RunUnits(ck, run)
	res := result(engineOf(dedup, reduce), cfg.Workers, counters)
	if ferr := s.failed(); ferr != nil {
		return res, ferr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
