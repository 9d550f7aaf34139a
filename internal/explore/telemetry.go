package explore

import "repro/internal/telemetry"

// Telemetry wiring, mirroring internal/search: deterministic tallies
// stay on worker-local integers, and when a registry is attached the
// searcher flushes tally deltas into sharded counters at task
// boundaries and every 1024 nodes. Write-only: nothing here is read
// back into exploration order, claiming or pruning, so the Result is
// byte-identical with telemetry on or off.

// engineMetrics is the explorer's family bundle; nil means telemetry
// is off.
type engineMetrics struct {
	nodes         *telemetry.Counter
	paths         *telemetry.Counter
	truncated     *telemetry.Counter
	deduped       *telemetry.Counter
	sleepPrunes   *telemetry.Counter
	symMerges     *telemetry.Counter
	faultBranches *telemetry.Counter
	poolHits      *telemetry.Counter
	poolMisses    *telemetry.Counter
	undoDepth     *telemetry.Gauge
	maxDepth      *telemetry.Gauge
}

// newEngineMetrics registers the explorer families (at zero, so every
// family is present on the first scrape); nil reg yields nil.
func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	return &engineMetrics{
		nodes:         reg.Counter("repro_engine_nodes_total"),
		paths:         reg.Counter("repro_engine_paths_total"),
		truncated:     reg.Counter("repro_engine_truncated_total"),
		deduped:       reg.Counter("repro_engine_deduped_total"),
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
// searcher counter; flushes ship the delta since the previous copy.
type engineTally struct {
	nodes, paths, truncated, deduped, stepsSlept, symMerges,
	faultBranches, poolHits, poolMisses int
}

// telTally snapshots the searcher's counters (including the
// engine-owned pool and undo statistics).
func (w *searcher) telTally() engineTally {
	poolHits, poolMisses := w.e.PoolStats()
	return engineTally{
		nodes:         w.nodes,
		paths:         w.paths,
		truncated:     w.truncated,
		deduped:       w.deduped,
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
	em.deduped.Add(shard, int64(cur.deduped-prev.deduped))
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
func (w *searcher) flushTelemetry() {
	em := w.s.em
	if em == nil {
		return
	}
	cur := w.telTally()
	em.addTally(w.id, w.flushed, cur, w.e.UndoMax(), w.maxDepth)
	w.flushed = cur
}
