package explore

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/worksteal"
)

// Parallel sharded exploration runs on the engine's worker pool
// (internal/engine): each worker owns a private monitor and drives the
// same backtracking DFS the sequential engine runs, handing subtrees to
// other workers as bare choice-index prefixes while the frontier starves.
//
// Dedup is shared through the engine's striped claim table, whose
// claim-once rule is what makes the merged Result deterministic:
// identical Paths, Truncated, StatesDeduped and MaxDepthReached for
// every worker count, equivalence-tested against Workers: 1 on every
// seed config. The one nondeterministic edge is *which* counterexample
// is reported when the property fails — prefixes racing to a failing
// state can differ between runs — so the engine aborts all workers on
// the first failure and reports the lexicographically least schedule
// among the failures found.

// task is one frontier entry: the choice-index prefix that re-reaches the
// subtree root from the initial state.
type task = worksteal.Task

// failure is one property violation found by some worker.
type failure struct {
	path []int
	desc []string
	err  error
}

// search is the state shared by all workers of one exploration.
type search struct {
	*engine.Pool
	cfg   Config
	table *engine.Table[struct{}] // nil with dedup off
	// cores are the workers' cores, recycled with the table.
	cores []*engine.Core

	mu   sync.Mutex
	fail *failure // lexicographically least failure so far
}

// recordFailure keeps the lexicographically least failing schedule (two
// distinct maximal schedules are never prefixes of one another, so
// element-wise comparison decides) and stops all workers. Which failures are *found* can vary run to run (a
// racing prefix may claim a state first), but the Check outcome — that the
// property fails — is deterministic for the property class dedup supports.
func (s *search) recordFailure(path []int, desc []string, err error) {
	s.mu.Lock()
	if s.fail == nil || slices.Compare(path, s.fail.path) < 0 {
		s.fail = &failure{
			path: append([]int(nil), path...),
			desc: append([]string(nil), desc...),
			err:  err,
		}
	}
	s.mu.Unlock()
	s.Stop()
}

// failed is the property violation the run stopped on, if any.
func (s *search) failed() error {
	if s.fail == nil {
		return nil
	}
	return fmt.Errorf("explore: property failed on schedule %v: %w", s.fail.desc, s.fail.err)
}

// searcher is one worker: a private monitor on the engine's worker
// state. cut, when non-negative, makes dfs stop at that depth and record
// each claimed internal node there as a unit (the shallow pass of a
// checkpointed run).
type searcher struct {
	engine.Worker
	s     *search
	e     *monitor
	cut   int
	units [][]int
}

func newSearcher(s *search, id int, reduce bool) (*searcher, error) {
	e, err := newMonitor(s.cfg)
	if err != nil {
		return nil, err
	}
	s.cores = append(s.cores, e.Core)
	var red *engine.Reduction
	if reduce {
		red = engine.NewReduction(e.Core, true, true)
	}
	return &searcher{Worker: engine.NewWorker(s.Pool, id, e.Core, red), s: s, e: e, cut: -1}, nil
}

// runTask explores the subtree under the task's prefix.
func (w *searcher) runTask(t task) error {
	sleep, err := w.Start(t)
	if err != nil {
		return err
	}
	err = w.dfs(len(t), sleep)
	w.Ship()
	return err
}

// dfs explores the subtree at the engine's current position: settle,
// count leaves, claim the (state, budget) pair, then expand.
func (w *searcher) dfs(depth int, sleep uint64) error {
	if err := w.Enter(depth); err != nil {
		return err
	}
	choices := w.e.SettleAt(depth)
	if len(choices) == 0 || depth >= w.s.cfg.MaxDepth {
		w.Paths++
		if len(choices) != 0 {
			w.Truncated++
		}
		if err := w.s.cfg.Check(w.e.events); err != nil {
			w.s.recordFailure(w.e.Path(), w.e.desc, err)
			return engine.ErrStopped
		}
		return nil
	}
	if w.s.table != nil {
		key, permuted := w.e.Key(w.Red, sleep)
		if permuted {
			w.SymmetryMerges++
		}
		if _, won := w.s.table.Claim(key, w.s.cfg.MaxDepth-depth, struct{}{}); !won {
			w.Deduped++
			return nil
		}
	}
	if depth == w.cut {
		w.units = append(w.units, append([]int(nil), w.e.Path()...))
		return nil
	}
	return w.expand(depth, choices, sleep)
}

// expand walks the children of the claimed node at the engine's
// position: every child recursively, or — while the frontier is
// starving — only the first, publishing the siblings as stealable
// prefixes.
func (w *searcher) expand(depth int, choices []engine.Choice, sleep uint64) error {
	// The canonical ranks the key just computed are captured per node:
	// child recursions overwrite the shared rank scratch.
	var earlier [64]uint64
	w.Red.EarlierMasks(choices, &earlier)
	split := w.Split(len(choices), w.s.cfg.MaxDepth-depth)
	// One snapshot serves every sibling: restore re-clones from the
	// mark and leaves the engine exactly at this node's post-settle
	// state, so the mark stays pristine across iterations. The mark
	// returns to the engine's free list once the last sibling is done.
	m := w.e.Save()
	first := true
	for i, c := range choices {
		if w.Red.Asleep(c, sleep) {
			// A sleeping process's subtree only contains schedules that
			// commute into an earlier sibling's subtree; skip it. Counted
			// at claimed nodes only, so the tally is deterministic.
			w.StepsSlept++
			continue
		}
		if split && !first {
			w.Handoff(i)
			continue
		}
		if c.Fault != memsim.FaultNone {
			w.FaultBranches++
		}
		childSleep, err := w.e.Child(w.Red, choices, i, sleep, &earlier)
		if err != nil {
			return err
		}
		if err := w.dfs(depth+1, childSleep); err != nil {
			return err
		}
		w.e.Restore(m)
		first = false
	}
	w.e.Release(m)
	return nil
}

// engineOf names the backtracking engine a dedup/reduce regime runs.
func engineOf(dedup, reduce bool) Engine {
	switch {
	case reduce:
		return EngineBacktrackDedupPOR
	case dedup:
		return EngineBacktrackDedup
	}
	return EngineBacktrack
}

// claimTables recycles claim tables across explorations.
var claimTables engine.TablePool[struct{}]

// newSearch sets up the shared state of a backtracking run, with a
// claim table from claimTables when dedup is on; the caller returns it
// with release once the run is done.
func newSearch(cfg Config, pool *engine.Pool, dedup bool) *search {
	s := &search{Pool: pool, cfg: cfg}
	if dedup {
		s.table = claimTables.Get()
		pool.WatchTable(s.table)
	}
	return s
}

// release returns the claim table, if any, to claimTables and the
// workers' cores, with their machines, to the engine's pool. Call it
// after the last export and the gauges, once every worker has joined.
func (s *search) release() {
	for _, c := range s.cores {
		c.Recycle()
	}
	if s.table != nil {
		claimTables.Put(s.table)
	}
}

// result folds merged counters into a Result.
func result(eng Engine, workers int, c checkpoint.Counters) *Result {
	return &Result{
		Engine:          eng,
		Workers:         workers,
		Paths:           c.Paths,
		Truncated:       c.Truncated,
		StatesDeduped:   c.Deduped,
		StepsSlept:      c.StepsSlept,
		SymmetryMerges:  c.SymmetryMerges,
		MaxDepthReached: c.MaxDepthReached,
	}
}

// runBacktrack drives the backtracking DFS — with or without state dedup —
// sharded across cfg.Workers workers (one worker runs the plain
// sequential DFS with no pool and no locks on the hot path). Results are identical for every worker count.
func runBacktrack(cfg Config, dedup, reduce bool) (*Result, error) {
	s := newSearch(cfg, engine.NewPool(checkpoint.KindExplore, cfg.Workers, cfg.Telemetry, nil), dedup || reduce)
	defer s.release()
	searchers := make([]*searcher, cfg.Workers)
	for i := range searchers {
		w, err := newSearcher(s, i, reduce)
		if err != nil {
			return nil, err
		}
		searchers[i] = w
	}
	s.Drive(func(id int, t task) error { return searchers[id].runTask(t) })

	var c checkpoint.Counters
	for _, w := range searchers {
		c.Add(w.Counters)
	}
	res := result(engineOf(dedup, reduce), cfg.Workers, c)
	if err := s.Err(); err != nil {
		return res, err
	}
	return res, s.failed()
}
