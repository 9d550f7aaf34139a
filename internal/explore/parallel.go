package explore

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/worksteal"
)

// Parallel sharded exploration. The schedule tree is embarrassingly
// parallel at the prefix level: any node is reachable from the root by its
// choice-index sequence alone, so a subtree can be handed to another
// worker as a bare []int. Each worker owns a private monitor (its own
// machine, instance, frame snapshots and undo log — nothing mutable is
// shared between executions) and drives the same backtracking DFS the
// sequential engine runs. Work distribution is the shared work-stealing
// frontier of internal/worksteal: every worker has a deque of subtree
// prefixes (own work pops LIFO, thieves steal the shallowest — largest —
// prefixes), and a worker splits its current node, pushing all siblings
// after the first as prefixes, only while the global frontier is
// starving; otherwise it recurses locally with zero coordination.
//
// Dedup is shared through the striped claim table (dedup.go), whose
// claim-once rule is what makes the merged Result deterministic: identical
// Paths, Truncated, StatesDeduped and MaxDepthReached for every worker
// count, equivalence-tested against Workers: 1 on every seed config. The
// one nondeterministic edge is *which* counterexample is reported when the
// property fails — prefixes racing to a failing state can differ between
// runs — so the engine aborts all workers on the first failure and reports
// the lexicographically least schedule among the failures found.

// errStopped unwinds a worker's DFS quickly once another worker has found
// a failure or an internal error; it never escapes runBacktrack.
var errStopped = errors.New("explore: stopped")

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
	cfg      Config
	workers  int
	table    *dedupTable // nil with dedup off
	reduce   bool        // sleep sets + symmetry canonicalization
	frontier *worksteal.Frontier
	stop     atomic.Bool
	em       *engineMetrics // nil unless cfg.Telemetry is attached

	mu   sync.Mutex
	fail *failure // lexicographically least failure so far
	err  error    // first internal engine error
}

// recordFailure keeps the lexicographically least failing schedule and
// stops all workers. Which failures are *found* can vary run to run (a
// racing prefix may claim a state first), but the Check outcome — that the
// property fails — is deterministic for the property class dedup supports.
func (s *search) recordFailure(path []int, desc []string, err error) {
	s.mu.Lock()
	if s.fail == nil || lexLess(path, s.fail.path) {
		s.fail = &failure{
			path: append([]int(nil), path...),
			desc: append([]string(nil), desc...),
			err:  err,
		}
	}
	s.mu.Unlock()
	s.stop.Store(true)
}

// fatal records the first internal engine error and stops all workers.
func (s *search) fatal(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.stop.Store(true)
}

// lexLess orders schedules by their choice-index sequences. Two distinct
// maximal schedules are never prefixes of one another (a leaf has no
// extensions), so element-wise comparison decides.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// searcher is one worker: a private engine plus local result tallies,
// merged after the pool joins. Local tallies keep the per-node hot path
// free of shared-counter traffic.
type searcher struct {
	s    *search
	id   int
	e    *monitor
	red  *engine.Reduction // nil unless the search reduces
	root *engine.Mark      // pristine initial state, for resetting between tasks

	paths      int
	truncated  int
	deduped    int
	stepsSlept int
	symMerges  int
	maxDepth   int

	// Telemetry-only tallies; never folded into the Result.
	nodes         int // total node visits
	ticks         int // visits not yet flushed to the registry
	faultBranches int // fault choices walked
	flushed       engineTally
}

func newSearcher(s *search, id int) (*searcher, error) {
	e, err := newMonitor(s.cfg)
	if err != nil {
		return nil, err
	}
	w := &searcher{s: s, id: id, e: e, root: e.Save()}
	if s.reduce {
		w.red = engine.NewReduction(e.Core, true, true)
	}
	return w, nil
}

// runTask rewinds the worker's engine to the initial state, replays the
// prefix by choice index, and explores the subtree. The replay is pure
// positioning: nodes along the prefix were already visited (counted,
// claimed, split) by the worker that produced the task, so it touches no
// counters and no claims.
func (w *searcher) runTask(t task) error {
	w.e.Restore(w.root)
	sleep, err := w.e.Descend(w.red, t)
	if err != nil {
		return fmt.Errorf("explore: internal: task %w", err)
	}
	err = w.dfs(len(t), sleep)
	if w.s.em != nil {
		w.ticks = 0
		w.flushTelemetry()
	}
	return err
}

// dfs explores the subtree at the engine's current position. It is the
// one enumeration loop of the backtracking engines, sequential or
// parallel: settle, count leaves, claim the (state, budget) pair, then
// either recurse into every child or — while the frontier is starving —
// keep only the first child and publish the siblings as stealable
// prefixes.
func (w *searcher) dfs(depth int, sleep uint64) error {
	if w.s.stop.Load() {
		return errStopped
	}
	w.nodes++
	if w.s.em != nil {
		// Batched telemetry flushes, same 1024-node cadence as the search
		// engine's Meter batching: the hot path sees only local ints.
		if w.ticks++; w.ticks == 1024 {
			w.ticks = 0
			w.flushTelemetry()
		}
	}
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	choices := w.e.SettleAt(depth)
	if len(choices) == 0 || depth >= w.s.cfg.MaxDepth {
		w.paths++
		if len(choices) != 0 {
			w.truncated++
		}
		if err := w.s.cfg.Check(w.e.events); err != nil {
			w.s.recordFailure(w.e.Path(), w.e.desc, err)
			return errStopped
		}
		return nil
	}
	if w.s.table != nil {
		key, permuted := w.e.Key(w.red, sleep)
		if permuted {
			w.symMerges++
		}
		if !w.s.table.claim(key, w.s.cfg.MaxDepth-depth) {
			w.deduped++
			return nil
		}
	}
	// The canonical ranks the key just computed are captured per node:
	// child recursions overwrite the shared rank scratch.
	var earlier [64]uint64
	w.red.EarlierMasks(choices, &earlier)
	// Split only internal nodes whose children are not forced leaves (a
	// leaf task would replay the whole path to do one check) and only
	// while the frontier is starving.
	split := w.s.workers > 1 && len(choices) > 1 && depth+1 < w.s.cfg.MaxDepth && w.s.frontier.Hungry()
	// One snapshot serves every sibling: restore re-clones from the
	// mark and leaves the engine exactly at this node's post-settle
	// state, so the mark stays pristine across iterations. The mark
	// returns to the engine's free list once the last sibling is done.
	m := w.e.Save()
	first := true
	for i, c := range choices {
		if w.red.Asleep(c, sleep) {
			// A sleeping process's subtree only contains schedules that
			// commute into an earlier sibling's subtree; skip it. Counted
			// at claimed nodes only, so the tally is deterministic.
			w.stepsSlept++
			continue
		}
		if split && !first {
			path := w.e.Path()
			prefix := make(task, len(path)+1)
			copy(prefix, path)
			prefix[len(prefix)-1] = i
			w.s.frontier.Submit(w.id, prefix)
			continue
		}
		if c.Fault != memsim.FaultNone {
			w.faultBranches++
		}
		childSleep, err := w.e.Child(w.red, choices, i, sleep, &earlier)
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

// runBacktrack drives the backtracking DFS — with or without state dedup —
// sharded across cfg.Workers workers (GOMAXPROCS when unset; one worker
// runs the plain sequential DFS with no pool and no locks on the hot
// path). Results are identical for every worker count.
func runBacktrack(cfg Config, dedup, reduce bool) (*Result, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := EngineBacktrack
	if reduce {
		eng = EngineBacktrackDedupPOR
		dedup = true // reduction keys live in the claim table
	} else if dedup {
		eng = EngineBacktrackDedup
	}
	s := &search{cfg: cfg, workers: workers, reduce: reduce, em: newEngineMetrics(cfg.Telemetry)}
	if dedup {
		s.table = newDedupTable()
	}
	// Register the frontier families even when one worker needs no
	// frontier, so scrapes see every family from the first snapshot.
	stealMetrics := worksteal.NewMetrics(cfg.Telemetry)
	searchers := make([]*searcher, workers)
	for i := range searchers {
		w, err := newSearcher(s, i)
		if err != nil {
			return nil, err
		}
		searchers[i] = w
	}

	if workers == 1 {
		err := searchers[0].dfs(0, 0)
		searchers[0].flushTelemetry()
		if err != nil && !errors.Is(err, errStopped) {
			return merge(s, eng, searchers), err
		}
	} else {
		s.frontier = worksteal.New(workers)
		s.frontier.SetMetrics(stealMetrics)
		s.frontier.Submit(0, task{}) // the root subtree
		var wg sync.WaitGroup
		for _, w := range searchers {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.frontier.Work(w.id, s.stop.Load, func(t task) {
					if err := w.runTask(t); err != nil && !errors.Is(err, errStopped) {
						s.fatal(err)
					}
				})
			}()
		}
		wg.Wait()
	}

	res := merge(s, eng, searchers)
	if s.err != nil {
		return res, s.err
	}
	if s.fail != nil {
		return res, fmt.Errorf("explore: property failed on schedule %v: %w", s.fail.desc, s.fail.err)
	}
	return res, nil
}

// merge folds the workers' private tallies into one Result.
func merge(s *search, eng Engine, searchers []*searcher) *Result {
	res := &Result{Engine: eng, Workers: s.workers}
	for _, w := range searchers {
		res.Paths += w.paths
		res.Truncated += w.truncated
		res.StatesDeduped += w.deduped
		res.StepsSlept += w.stepsSlept
		res.SymmetryMerges += w.symMerges
		if w.maxDepth > res.MaxDepthReached {
			res.MaxDepthReached = w.maxDepth
		}
	}
	return res
}
