package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
	"repro/internal/worksteal"
)

// The worker pool both engines drive their DFS on. The schedule tree is
// parallel at the prefix level: any node is reachable from the root by
// its choice-index sequence alone, so a subtree hands off to another
// worker as a bare []int on the work-stealing frontier of
// internal/worksteal. Each worker owns a private core (machine, frames,
// undo log) and local counters; a worker publishes siblings as stealable
// prefixes only while the frontier is starving, and otherwise recurses
// with zero coordination. Counters stay on worker-local integers and
// reach the telemetry registry in batches, at task boundaries and every
// 1024 nodes — write-only, so every Result is byte-identical with
// telemetry on or off.

// ErrStopped unwinds a worker's walk once the run has stopped (a
// property failure, an internal error, or an interrupt). It never
// escapes an engine's entry point.
var ErrStopped = errors.New("engine: stopped")

// Pool is the state every worker of one run shares.
type Pool struct {
	name     string              // prefixes the run's errors ("explore", "search")
	workers  int                 // one worker runs the root task with no frontier
	frontier *worksteal.Frontier // the stealable tasks; nil with one worker

	metrics *engineMetrics   // live telemetry; nil when off
	meter   *telemetry.Meter // live node ticks; nil when off
	steal   worksteal.Metrics
	table   tableSize // the run's claim table, for its gauges; nil when none

	stop  atomic.Bool
	abort chan struct{} // nil with one worker, which never blocks on a claim
	once  sync.Once

	mu  sync.Mutex
	err error // first internal error
}

// NewPool sets up a run of kind's engine on workers workers. A non-nil
// reg registers the engine and frontier families (at zero, so every
// family is on the first scrape) and receives the workers' batched
// counters; a non-nil meter receives batched node ticks.
func NewPool(kind checkpoint.Kind, workers int, reg *telemetry.Registry, meter *telemetry.Meter) *Pool {
	p := &Pool{
		name:    kind.String(),
		workers: workers,
		metrics: newEngineMetrics(reg, kind),
		meter:   meter,
		steal:   worksteal.NewMetrics(reg),
	}
	if workers > 1 {
		p.abort = make(chan struct{})
	}
	return p
}

// tableSize is what the table gauges read: a Table of any value type.
type tableSize interface {
	Len() int
	Bytes() int
	ProbeMax() int
}

// WatchTable names the run's claim table, whose entries, bytes and
// longest probe the telemetry gauges report once per run (at the end of
// Drive) or per committed unit.
func (p *Pool) WatchTable(t tableSize) { p.table = t }

// Stop halts every worker at its next node.
func (p *Pool) Stop() {
	p.stop.Store(true)
	if p.abort != nil {
		p.once.Do(func() { close(p.abort) })
	}
}

// Stopped reports whether the run has stopped.
func (p *Pool) Stopped() bool { return p.stop.Load() }

// Abort is closed once the run stops, for workers blocked on another
// worker's claim. With one worker it is nil: every claim a lone worker
// loses is a subtree it already finished (budgets shrink with depth, so
// no descendant shares a pair with an open ancestor).
func (p *Pool) Abort() <-chan struct{} { return p.abort }

// Fatal records the first internal error and stops the run.
func (p *Pool) Fatal(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.Stop()
}

// Err is the first internal error, once the run has joined.
func (p *Pool) Err() error { return p.err }

// Drive runs the root task: on the caller with one worker, otherwise on
// one goroutine per worker, sharing the frontier. run explores one task on
// worker id; an error other than ErrStopped stops the run through Fatal.
func (p *Pool) Drive(run func(id int, t worksteal.Task) error) {
	defer p.metrics.setTable(p.table)
	if p.workers == 1 {
		if err := run(0, nil); err != nil && !errors.Is(err, ErrStopped) {
			p.Fatal(err)
		}
		return
	}
	exec := func(id int, t worksteal.Task) {
		if err := run(id, t); err != nil && !errors.Is(err, ErrStopped) {
			p.Fatal(err)
		}
	}
	p.frontier = worksteal.New(p.workers)
	p.frontier.SetMetrics(p.steal)
	p.frontier.Submit(0, worksteal.Task{})
	var wg sync.WaitGroup
	for id := 0; id < p.workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.frontier.Work(id, p.Stopped, func(t worksteal.Task) { exec(id, t) })
		}()
	}
	wg.Wait()
}

// Tally is one worker's counters: the deterministic ones a Result and a
// checkpoint carry (the explorer counts lost claims as Deduped, the
// searcher as Pruned), and telemetry-only ones no Result ever reads.
type Tally struct {
	checkpoint.Counters
	Nodes         int // node visits
	MemoHits      int // claims lost by an edge visit (search)
	MemoMisses    int // claims won (search)
	FaultBranches int // fault choices walked

	poolHits, poolMisses int // the core's snapshot pool, sampled at a flush
}

// Worker is one worker of a pool: its core and reduction, the pristine
// root mark tasks rewind to, and its counters.
type Worker struct {
	Tally
	Pool *Pool
	Core *Core
	Red  *Reduction // nil unless the run reduces

	id      int
	root    *Mark
	flushed Tally // the tally at the last flush
	ticks   int   // node visits not yet shipped
}

// NewWorker attaches worker id to p, snapshotting core's current state
// as the root every task rewinds to. Engines embed the value in their
// own worker type.
func NewWorker(p *Pool, id int, core *Core, red *Reduction) Worker {
	return Worker{id: id, Pool: p, Core: core, Red: red, root: core.Save()}
}

// Enter opens a node visit at depth: ErrStopped once the run has
// stopped, otherwise the visit counts (every 1024th ships the batch).
func (w *Worker) Enter(depth int) error {
	if w.Pool.stop.Load() {
		return ErrStopped
	}
	w.Nodes++
	if w.Pool.metrics != nil || w.Pool.meter != nil {
		if w.ticks++; w.ticks == 1024 {
			w.Ship()
		}
	}
	if depth > w.MaxDepthReached {
		w.MaxDepthReached = depth
	}
	return nil
}

// Ship sends the node visits batched since the last ship to the meter
// and the counters to the live telemetry.
func (w *Worker) Ship() {
	if m := w.Pool.meter; m != nil && w.ticks > 0 {
		m.Add(w.ticks)
	}
	w.ticks = 0
	if w.Pool.metrics != nil {
		w.flush(w.Pool.metrics, w.id)
	}
}

// Start rewinds the worker to the root and re-reaches t's subtree root
// by its prefix — pure positioning: the worker that produced the task
// already counted and claimed every node on the way — returning the
// sleep set there.
func (w *Worker) Start(t worksteal.Task) (uint64, error) {
	w.Core.Restore(w.root)
	sleep, err := w.Core.Descend(w.Red, t)
	if err != nil {
		return 0, fmt.Errorf("%s: internal: task %w", w.Pool.name, err)
	}
	return sleep, nil
}

// Split reports whether a node with choices children at remaining depth
// budget should publish siblings: only while the frontier is starving,
// and never forced leaves (a leaf task would replay the whole prefix to
// do one check).
func (w *Worker) Split(choices, budget int) bool {
	return w.Pool.workers > 1 && choices > 1 && budget > 1 && w.Pool.frontier.Hungry()
}

// Handoff publishes child i of the current node as a stealable task.
func (w *Worker) Handoff(i int) {
	path := w.Core.Path()
	t := make(worksteal.Task, len(path)+1)
	copy(t, path)
	t[len(path)] = i
	w.Pool.frontier.Submit(w.id, t)
}

// flush ships the tally's movement since the last flush onto m (shard =
// worker ID), raises the high-water gauges, and marks the flush point.
func (w *Worker) flush(m *engineMetrics, shard int) {
	cur := w.Tally
	cur.poolHits, cur.poolMisses = w.Core.PoolStats()
	m.add(shard, &w.flushed, &cur, w.Core.UndoMax())
	w.flushed = cur
}

// commit moves the counters tallied since the last flush into c and
// flushes them to m: how a checkpointed run books a committed unit.
// MaxDepthReached is a running maximum, which Counters.Add merges by
// max, so the cumulative value passes through.
func (w *Worker) commit(c *checkpoint.Counters, m *engineMetrics) {
	cur, prev := &w.Counters, &w.flushed.Counters
	c.Add(checkpoint.Counters{
		Paths:           cur.Paths - prev.Paths,
		Truncated:       cur.Truncated - prev.Truncated,
		Pruned:          cur.Pruned - prev.Pruned,
		Deduped:         cur.Deduped - prev.Deduped,
		StepsSlept:      cur.StepsSlept - prev.StepsSlept,
		SymmetryMerges:  cur.SymmetryMerges - prev.SymmetryMerges,
		MaxDepthReached: cur.MaxDepthReached,
	})
	w.flush(m, 0)
	m.setTable(w.Pool.table)
}

// engineMetrics is an engine's telemetry family bundle; nil means
// telemetry is off. The explorer registers the deduped family, the
// searcher the pruned and memo families; the handles an engine does not
// register stay nil, and a nil handle records nothing.
type engineMetrics struct {
	nodes, paths, truncated, deduped, pruned, memoHits, memoMisses,
	sleepPrunes, symMerges, faultBranches, poolHits, poolMisses *telemetry.Counter
	undoDepth, maxDepth, tableEntries, tableBytes, tableProbeMax *telemetry.Gauge
}

// newEngineMetrics registers kind's engine families on reg; nil reg
// yields nil.
func newEngineMetrics(reg *telemetry.Registry, kind checkpoint.Kind) *engineMetrics {
	if reg == nil {
		return nil
	}
	m := &engineMetrics{
		nodes:         reg.Counter("repro_engine_nodes_total"),
		paths:         reg.Counter("repro_engine_paths_total"),
		truncated:     reg.Counter("repro_engine_truncated_total"),
		sleepPrunes:   reg.Counter("repro_engine_sleep_prunes_total"),
		symMerges:     reg.Counter("repro_engine_symmetry_merges_total"),
		faultBranches: reg.Counter("repro_engine_fault_branches_total"),
		poolHits:      reg.Counter("repro_engine_pool_hits_total"),
		poolMisses:    reg.Counter("repro_engine_pool_misses_total"),
		undoDepth:     reg.Gauge("repro_engine_undo_depth_max"),
		maxDepth:      reg.Gauge("repro_engine_max_depth"),
		tableEntries:  reg.Gauge("repro_engine_table_entries"),
		tableBytes:    reg.Gauge("repro_engine_table_bytes"),
		tableProbeMax: reg.Gauge("repro_engine_table_probe_max"),
	}
	if kind == checkpoint.KindSearch {
		m.pruned = reg.Counter("repro_engine_pruned_total")
		m.memoHits = reg.Counter("repro_engine_memo_hits_total")
		m.memoMisses = reg.Counter("repro_engine_memo_misses_total")
	} else {
		m.deduped = reg.Counter("repro_engine_deduped_total")
	}
	return m
}

// add ships cur − prev and raises the gauges. No-op on nil.
func (m *engineMetrics) add(shard int, prev, cur *Tally, undoMax int) {
	if m == nil {
		return
	}
	m.nodes.Add(shard, int64(cur.Nodes-prev.Nodes))
	m.paths.Add(shard, int64(cur.Paths-prev.Paths))
	m.truncated.Add(shard, int64(cur.Truncated-prev.Truncated))
	m.deduped.Add(shard, int64(cur.Deduped-prev.Deduped))
	m.pruned.Add(shard, int64(cur.Pruned-prev.Pruned))
	m.memoHits.Add(shard, int64(cur.MemoHits-prev.MemoHits))
	m.memoMisses.Add(shard, int64(cur.MemoMisses-prev.MemoMisses))
	m.sleepPrunes.Add(shard, int64(cur.StepsSlept-prev.StepsSlept))
	m.symMerges.Add(shard, int64(cur.SymmetryMerges-prev.SymmetryMerges))
	m.faultBranches.Add(shard, int64(cur.FaultBranches-prev.FaultBranches))
	m.poolHits.Add(shard, int64(cur.poolHits-prev.poolHits))
	m.poolMisses.Add(shard, int64(cur.poolMisses-prev.poolMisses))
	m.undoDepth.Max(int64(undoMax))
	m.maxDepth.Max(int64(cur.MaxDepthReached))
}

// setTable sets the table gauges to t's size and longest probe. No-op
// on nil m or t, so the slot walk of ProbeMax runs only with telemetry
// on.
func (m *engineMetrics) setTable(t tableSize) {
	if m == nil || t == nil {
		return
	}
	m.tableEntries.Set(int64(t.Len()))
	m.tableBytes.Set(int64(t.Bytes()))
	m.tableProbeMax.Set(int64(t.ProbeMax()))
}
