package search

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/model"
)

// Checkpointed execution: the same branch-and-bound search, partitioned
// into a deterministic sequence of units — the internal tree nodes at a
// fixed shard depth, each processed as a prefetch task against the
// shared memo table — followed by one spine pass from the root that
// computes the shallow tree and links the memoized units into the final
// answer. Snapshots are written only between committed units, so a
// snapshot always holds a consistent table (every entry fully computed)
// plus the exact counter deltas of the committed units; a resumed run
// replays nothing, skips the committed units, and finishes with a Result
// byte-identical to an uninterrupted run's.
//
// Why the totals cannot drift across kills: every Result field is
// traversal-order-independent. Each (canonical state, budget) node is
// claimed and computed exactly once across the whole decomposed run (the
// table persists across units), each DAG edge is walked exactly once by
// the node that owns its parent, Paths counts edges into leaves, and
// Pruned counts edge arrivals at already-adopted nodes — all functions
// of the configuration alone, exactly the argument that already makes
// the in-memory search worker-count-independent (see exhaustive.go).
// Unit roots are claimed as prefetch visits (never adopted, never
// counted), so the partition itself leaves no fingerprint in the tallies.

// Checkpoint configures a durable run.
type Checkpoint = engine.Checkpoint

// Fingerprint renders the configuration identity a snapshot is bound to.
// Everything that determines the search space is included — algorithm
// tag, process count, scripts, depth bound, model, shard depth — and the
// sharded (fresh-table-per-unit) counter regime is marked distinctly so
// its snapshots cannot resume into a shared-table run or vice versa. A
// reduced run (Config.Reduce with a capable model) is likewise marked:
// its memo entries key (state, sleep) pairs and carry no tails, so they
// must never seed an unreduced table or vice versa.
func Fingerprint(tag string, cfg Config, shardDepth int, sharded bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "search|%s|n=%d|depth=%d|model=%s|shard=%d|scripts=",
		tag, cfg.N, cfg.MaxDepth, cfg.Model.Name(), shardDepth)
	engine.WriteScripts(&b, cfg.N, cfg.Scripts)
	if cfg.Faults.Enabled() {
		// A fault-enabled search explores a strictly larger schedule space
		// and keys its memo entries with the consumed fault budget, so its
		// snapshots must never resume into a fault-free run or vice versa
		// (and distinct policies must never cross-seed each other).
		fmt.Fprintf(&b, "|faults[%s]", cfg.Faults)
	}
	if sharded {
		b.WriteString("|sharded")
	}
	if reduceEffective(cfg) {
		b.WriteString("|reduce")
		if cfg.Faults.Enabled() {
			// Reduced keys under faults place the consumed fault budget
			// after the machine state (the explorer's layout, shared
			// through the node-expansion core); snapshots written with the
			// earlier budget-first layout must not resume into this one.
			b.WriteString("|keys2")
		}
	}
	return b.String()
}

// reduceEffective reports whether cfg actually runs the reduced regime:
// Reduce requested and the model asserts at least one of the reduction
// capabilities (otherwise newReduction degrades to the plain engine).
func reduceEffective(cfg Config) bool {
	return cfg.Reduce &&
		(model.OrderInvariantCost(cfg.Model) || model.PermutationInvariantCost(cfg.Model))
}

// EffectiveShardDepth reports the unit depth a run with this config and
// requested depth actually uses — what a coordinator must fingerprint.
func EffectiveShardDepth(cfg Config, d int) (int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return 0, err
	}
	return engine.ClampShardDepth(d, cfg.MaxDepth), nil
}

// ExpandUnits enumerates the units of cfg at shardDepth: the choice
// prefixes of every internal tree node at exactly that depth, in
// lexicographic order. Leaves above the shard depth carry no unit (the
// spine pass scores them). The enumeration is a pure expansion — no
// table, no counters — so coordinator and workers can re-derive the
// identical list independently.
func ExpandUnits(cfg Config, shardDepth int) ([][]int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	return expandUnits(cfg, engine.ClampShardDepth(shardDepth, cfg.MaxDepth))
}

func expandUnits(cfg Config, d int) ([][]int, error) {
	e, err := newPricer(cfg)
	if err != nil {
		return nil, err
	}
	// The expansion mirrors the reduced tree exactly: a slept child is
	// never a unit root (the search never walks it), so the unit list —
	// like everything else — is a pure function of the configuration.
	var red *engine.Reduction
	if cfg.Reduce {
		red = newReduction(e, cfg.Model)
	}
	var units [][]int
	var walk func(depth int, prefix []int, sleep uint64) error
	walk = func(depth int, prefix []int, sleep uint64) error {
		choices := e.SettleAt(depth)
		if len(choices) == 0 || cfg.MaxDepth-depth == 0 {
			return nil
		}
		if depth == d {
			units = append(units, append([]int(nil), prefix...))
			return nil
		}
		var earlier [64]uint64
		if red.POR() {
			red.StateKey(sleep)
			red.EarlierMasks(choices, &earlier)
		}
		m := e.Save()
		for i, c := range choices {
			if red.Asleep(c, sleep) {
				continue
			}
			childSleep, err := e.Child(red, choices, i, sleep, &earlier)
			if err != nil {
				return err
			}
			if err := walk(depth+1, append(prefix, i), childSleep); err != nil {
				return err
			}
			e.Restore(m)
		}
		e.Release(m)
		return nil
	}
	if err := walk(0, nil, 0); err != nil {
		return nil, err
	}
	return units, nil
}

// RunCheckpointed runs the exhaustive search durably: units commit in
// order, a snapshot lands at ck.Path between commits, and an interrupted
// run resumes from the snapshot to the byte-identical Result an
// uninterrupted run produces. An interruption (ck.Interrupt, or the
// deterministic ck.StopAfter) returns an error classified as
// errs.ClassInterrupt; everything already committed is on disk.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeExhaustive {
		return nil, errs.Failure(errs.CodeInvalid,
			"search: only exhaustive mode checkpoints (sample walks are cheap to rerun)")
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "search: checkpoint requires a path")
	}
	d := engine.ClampShardDepth(ck.ShardDepth, cfg.MaxDepth)
	s := newBnb(cfg)
	w, err := newHunter(s, engine.NewPool(checkpoint.KindSearch, 1, nil, cfg.Meter), 0)
	if err != nil {
		return nil, err
	}
	counters, err := engine.RunUnits(ck, engine.Durable{
		Kind:        checkpoint.KindSearch,
		Fingerprint: Fingerprint(ck.Tag, cfg, d, false),
		ShardDepth:  d,
		Telemetry:   cfg.Telemetry,
		Worker:      &w.Worker,
		Export:      s.export,
		Preload:     s.preload,
		// Units are a pure expansion, so a resumed run re-derives them
		// and checks the snapshot's list against its own.
		Plan: func(resumed *checkpoint.Snapshot) ([][]int, error) {
			units, err := expandUnits(cfg, d)
			if err == nil && resumed != nil && !slices.EqualFunc(resumed.Units, units, slices.Equal[[]int]) {
				return nil, errs.Defectf("search: snapshot %s unit list disagrees with re-derivation", ck.Path)
			}
			return units, err
		},
		// Each unit is a prefetch task against the shared table.
		Unit: w.runTask,
		// The spine pass: compute the tree above the shard depth from the
		// root, adopting the memoized units.
		Finish: func() error { return w.runTask(nil) },
	})
	if err != nil {
		return nil, err
	}
	res, err := s.result(w, counters)
	if err != nil {
		return nil, err
	}
	if err := auditResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}
