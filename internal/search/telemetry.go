package search

import "repro/internal/telemetry"

// Telemetry wiring. The engine keeps its deterministic tallies on
// worker-local integers exactly as before; when a registry is attached
// the hunter additionally flushes tally *deltas* into sharded counters
// at task boundaries and every 1024 nodes (piggybacking on the Meter's
// batching point), so the tick path itself never touches an atomic.
// Telemetry is write-only for the engine: nothing here is ever read
// back into scheduling, claiming or pruning decisions, which is what
// keeps Result fields byte-identical with telemetry on or off.

// engineMetrics is the search engine's family bundle. nil means
// telemetry is off (the common case); all contained handles are
// non-nil once constructed.
type engineMetrics struct {
	nodes         *telemetry.Counter
	paths         *telemetry.Counter
	truncated     *telemetry.Counter
	pruned        *telemetry.Counter
	memoHits      *telemetry.Counter
	memoMisses    *telemetry.Counter
	sleepPrunes   *telemetry.Counter
	symMerges     *telemetry.Counter
	faultBranches *telemetry.Counter
	poolHits      *telemetry.Counter
	poolMisses    *telemetry.Counter
	undoDepth     *telemetry.Gauge
	maxDepth      *telemetry.Gauge
}

// newEngineMetrics registers the engine families (at zero, so they are
// present on the very first scrape) and returns the bundle; nil reg
// yields nil.
func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		nodes:         reg.Counter("repro_engine_nodes_total"),
		paths:         reg.Counter("repro_engine_paths_total"),
		truncated:     reg.Counter("repro_engine_truncated_total"),
		pruned:        reg.Counter("repro_engine_pruned_total"),
		memoHits:      reg.Counter("repro_engine_memo_hits_total"),
		memoMisses:    reg.Counter("repro_engine_memo_misses_total"),
		sleepPrunes:   reg.Counter("repro_engine_sleep_prunes_total"),
		symMerges:     reg.Counter("repro_engine_symmetry_merges_total"),
		faultBranches: reg.Counter("repro_engine_fault_branches_total"),
		poolHits:      reg.Counter("repro_engine_pool_hits_total"),
		poolMisses:    reg.Counter("repro_engine_pool_misses_total"),
		undoDepth:     reg.Gauge("repro_engine_undo_depth_max"),
		maxDepth:      reg.Gauge("repro_engine_max_depth"),
	}
}

// engineTally is a point-in-time copy of every telemetry-visible
// hunter counter; flushes ship the delta since the previous copy.
type engineTally struct {
	nodes, paths, truncated, pruned, memoHits, memoMisses,
	stepsSlept, symMerges, faultBranches, poolHits, poolMisses int
}

// telTally snapshots the hunter's counters (including the engine-owned
// pool and undo statistics).
func (w *hunter) telTally() engineTally {
	poolHits, poolMisses := w.e.PoolStats()
	return engineTally{
		nodes:         w.nodes,
		paths:         w.paths,
		truncated:     w.truncated,
		pruned:        w.pruned,
		memoHits:      w.memoHits,
		memoMisses:    w.memoClaims,
		stepsSlept:    w.stepsSlept,
		symMerges:     w.symMerges,
		faultBranches: w.faultBranches,
		poolHits:      poolHits,
		poolMisses:    poolMisses,
	}
}

// addTally flushes the delta between two tallies onto the sharded
// counters (shard = worker ID) and raises the high-water gauges.
func (em *engineMetrics) addTally(shard int, prev, cur engineTally, undoMax, maxDepth int) {
	if em == nil {
		return
	}
	em.nodes.Add(shard, int64(cur.nodes-prev.nodes))
	em.paths.Add(shard, int64(cur.paths-prev.paths))
	em.truncated.Add(shard, int64(cur.truncated-prev.truncated))
	em.pruned.Add(shard, int64(cur.pruned-prev.pruned))
	em.memoHits.Add(shard, int64(cur.memoHits-prev.memoHits))
	em.memoMisses.Add(shard, int64(cur.memoMisses-prev.memoMisses))
	em.sleepPrunes.Add(shard, int64(cur.stepsSlept-prev.stepsSlept))
	em.symMerges.Add(shard, int64(cur.symMerges-prev.symMerges))
	em.faultBranches.Add(shard, int64(cur.faultBranches-prev.faultBranches))
	em.poolHits.Add(shard, int64(cur.poolHits-prev.poolHits))
	em.poolMisses.Add(shard, int64(cur.poolMisses-prev.poolMisses))
	em.undoDepth.Max(int64(undoMax))
	em.maxDepth.Max(int64(maxDepth))
}

// flushTelemetry ships everything accumulated since the last flush.
// No-op without a registry.
func (w *hunter) flushTelemetry() {
	em := w.s.em
	if em == nil {
		return
	}
	cur := w.telTally()
	em.addTally(w.id, w.flushed, cur, w.e.UndoMax(), w.maxDepth)
	w.flushed = cur
}
