package search

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/worksteal"
)

// Exhaustive mode: a branch-and-bound DFS over the schedule tree, sharded
// across work-stealing workers on the prefix-handoff frontier shared with
// the explorer (internal/worksteal: any node is reachable from the root
// by its choice-index sequence, so a subtree hands off as a bare []int).
//
// The cut is a memo table over the search DAG: each (canonical state,
// remaining budget) pair is claimed by its first visitor, which computes
// and publishes the subtree's exact answer — the maximal tail cost and
// the lexicographically least tail achieving it. Both are functions of
// the pair alone (the canonical state includes the pricing state, and
// per-step costs are state-determined), so every later arrival reuses the
// entry regardless of the cost its own prefix accumulated. That is a
// strictly stronger cut than classic (cost so far, budget) dominance: a
// dominance rule must re-explore a state reached with higher prefix cost,
// and its equal-cost corner is unsound for lexicographically-least
// witnesses (see docs/ARCHITECTURE.md). Because an entry is exact, a
// parent combines children as max(step cost + child tail cost), breaking
// ties toward the smallest choice index — which makes the root answer the
// global maximum with its lexicographically least witness, for any worker
// count and any claim-race outcome.
//
// Unlike the explorer, a parent cannot skip a handed-off sibling: it
// needs the child's answer to take the max. Handoff therefore publishes
// sibling prefixes as *prefetch* tasks — a thief computes the subtree
// into the memo table — and the parent still walks every child, turning
// stolen subtrees into waits on their memo entries. Waits cannot
// deadlock: a visitor only ever waits on entries of strictly smaller
// budget, so the wait graph is acyclic. Counters stay deterministic
// because only edge visits (a parent walking its child) count: each
// non-root node is computed-or-adopted by exactly one edge visit and
// every further edge visit counts one prune, so Pruned is exactly
// (DAG edges) − (non-root DAG nodes), a function of the configuration.

// task is one frontier entry: the choice-index prefix that re-reaches the
// subtree root from the initial state.
type task = worksteal.Task

// memoEntry is one claimed subtree. The claimer fills cost and tail, then
// flips complete (and closes done, if some waiter materialized it); after
// that both fields are immutable and any worker may read them.
type memoEntry struct {
	cost int   // maximal tail cost from the pair
	tail []int // lexicographically least tail achieving cost
	// done is materialized lazily, under the stripe lock, by the first
	// waiter that finds the entry incomplete — so the common case (claims
	// that never block, and every single-worker run) allocates no channel.
	done chan struct{}
	// complete flips once cost/tail are published. Readers fast-path on
	// it; the atomic store/load pair orders the field writes before any
	// reader that observes true.
	complete atomic.Bool
	// adopted marks that an edge visit has taken responsibility for the
	// entry. The first edge visit to arrive (claimer or not) adopts it
	// silently; each further edge visit counts one prune — bookkeeping
	// that makes Pruned independent of which visitor won the claim race
	// (prefetch task roots never adopt and never count).
	adopted atomic.Bool
}

// slab hands out pointer-stable zeroed entries: they are appended within
// one 256-entry backing array, and a full array is replaced by a fresh
// one (never reallocated), staying alive through the table slots that
// point into it.
type slab []memoEntry

func (s *slab) next() *memoEntry {
	if len(*s) == cap(*s) {
		*s = make([]memoEntry, 0, 256)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// bnb is the state shared by all workers of one exhaustive search: the
// memo table, keyed by (canonical state, remaining budget), and the root
// answer.
type bnb struct {
	cfg   Config
	table *engine.Table[*memoEntry]

	mu       sync.Mutex
	rootCost int
	rootTail []int
	rootSet  bool
}

func newBnb(cfg Config) *bnb {
	return &bnb{cfg: cfg, table: engine.NewTable[*memoEntry]()}
}

// publish installs a claimed entry's answer and wakes any waiters. The
// atomic flip is ordered after the field writes; the lock round-trip
// pairs with wait's waiter registration.
func (s *bnb) publish(state [16]byte, e *memoEntry, cost int, tail []int) {
	e.cost, e.tail = cost, tail
	e.complete.Store(true)
	mu := s.table.Mutex(state)
	mu.Lock()
	if e.done != nil {
		close(e.done)
	}
	mu.Unlock()
}

// wait blocks until e is published or abort closes; it reports whether the
// entry completed. A visitor only ever waits on entries of strictly
// smaller budget than its own claim, so waits cannot cycle — and a
// single-worker run never waits at all (every claim it loses is one its
// own traversal already published).
func (s *bnb) wait(state [16]byte, e *memoEntry, abort <-chan struct{}) bool {
	if e.complete.Load() {
		return true
	}
	mu := s.table.Mutex(state)
	mu.Lock()
	if e.complete.Load() {
		mu.Unlock()
		return true
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	done := e.done
	mu.Unlock()
	select {
	case <-done:
		return true
	case <-abort:
		return false
	}
}

// export drains the table into checkpoint entries (every entry must be
// complete, which holds between units: no worker is running).
func (s *bnb) export() []checkpoint.Entry {
	return s.table.Export(func(en *checkpoint.Entry, e *memoEntry) {
		en.Cost, en.Tail, en.Adopted = e.cost, append([]int(nil), e.tail...), e.adopted.Load()
	})
}

// preload seeds the table with persisted entries, born complete, so
// arrivals read them like any other finished claim (no waiter ever
// materializes their done channel).
func (s *bnb) preload(entries []checkpoint.Entry) {
	var sl slab
	s.table.Preload(entries, func(en checkpoint.Entry) *memoEntry {
		e := sl.next()
		e.cost, e.tail = en.Cost, append([]int(nil), en.Tail...)
		e.adopted.Store(en.Adopted)
		e.complete.Store(true)
		return e
	})
}

// result assembles the Result from the root answer and the merged
// counters. A reduced run reconstructs its witness from the table on w —
// after the counters are merged: the reconstruction may recompute
// subtrees, and its tallies must not count.
func (s *bnb) result(w *hunter, c checkpoint.Counters) (*Result, error) {
	if !s.rootSet {
		return nil, errors.New("search: internal: root subtree never completed")
	}
	res := &Result{
		Mode:            ModeExhaustive,
		Model:           s.cfg.Model.Name(),
		WorstCost:       s.rootCost,
		Witness:         s.rootTail,
		Workers:         s.cfg.Workers,
		Paths:           c.Paths,
		Truncated:       c.Truncated,
		Pruned:          c.Pruned,
		StepsSlept:      c.StepsSlept,
		SymmetryMerges:  c.SymmetryMerges,
		MaxDepthReached: c.MaxDepthReached,
	}
	if w.Red != nil {
		res.Reduced = true
		witness, err := w.reconstructWitness(s.rootCost)
		if err != nil {
			return nil, err
		}
		res.Witness = witness
	}
	return res, nil
}

// hunter is one worker: a private pricer on the engine's worker state,
// with its own entry slab and the spare entry its next claim offers.
type hunter struct {
	engine.Worker
	s     *bnb
	e     *pricer
	slab  slab
	spare *memoEntry
}

func newHunter(s *bnb, pool *engine.Pool, id int) (*hunter, error) {
	e, err := newPricer(s.cfg)
	if err != nil {
		return nil, err
	}
	var red *engine.Reduction
	if s.cfg.Reduce {
		red = newReduction(e, s.cfg.Model)
	}
	return &hunter{Worker: engine.NewWorker(pool, id, e.Core, red), s: s, e: e}, nil
}

// newReduction builds the reduction for e under the model's capabilities:
// sleep sets when it asserts order-invariant costs, symmetry when it
// additionally asserts permutation-invariant costs. It returns nil when
// neither applies; the run is then the plain search.
func newReduction(e *pricer, scorer model.Scorer) *engine.Reduction {
	r := engine.NewReduction(e.Core, model.OrderInvariantCost(scorer), model.PermutationInvariantCost(scorer))
	if !r.POR() && !r.Symmetric() {
		return nil
	}
	return r
}

// runTask searches the subtree under the task's prefix. The empty
// prefix is the root task; its answer is the search result.
func (w *hunter) runTask(t task) error {
	sleep, err := w.Start(t)
	if err != nil {
		return err
	}
	cost, tail, err := w.dfs(len(t), sleep, len(t) == 0)
	w.Ship()
	if err != nil {
		return err
	}
	if len(t) == 0 {
		w.s.mu.Lock()
		w.s.rootCost, w.s.rootTail, w.s.rootSet = cost, tail, true
		w.s.mu.Unlock()
	}
	return nil
}

// dfs computes the exact answer for the subtree at the engine's current
// position: the maximal tail cost and the lexicographically least tail
// achieving it. fromEdge marks visits that arrive by a parent walking its
// child (plus the root), the only visits that touch counters; prefetch
// task roots pass false.
//
// Under reduction (w.Red != nil) three things change. The memo key is the
// reduced canonical key over (state, sleep) — sleep bits are part of the
// state because the explored subtree is a function of both. Children
// whose process sleeps are skipped entirely: their subtrees contain only
// schedules that commute, access by access, into an earlier sibling's
// subtree, so under an order-invariant model their bills are duplicates.
// And entries publish cost only (tail nil): a tail's choice indices are
// meaningful only at the representative that computed them, so the
// witness is reconstructed from the table afterwards. A node whose every
// child is asleep (or transitively so) publishes the blocked sentinel -1
// — its schedules are all accounted elsewhere — and parents skip blocked
// children when maximizing, so every non-negative published cost is
// realized by a schedule inside its own (state, sleep) subtree, which is
// what makes the reconstruction descent sound.
func (w *hunter) dfs(depth int, sleep uint64, fromEdge bool) (int, []int, error) {
	if err := w.Enter(depth); err != nil {
		return 0, nil, err
	}
	choices := w.e.SettleAt(depth)
	budget := w.s.cfg.MaxDepth - depth
	if len(choices) == 0 || budget == 0 {
		// A leaf is scored, not memoized: its answer is trivial and each
		// arriving schedule is one maximal history, mirroring the
		// explorer's path accounting.
		if fromEdge {
			w.Paths++
			if len(choices) != 0 {
				w.Truncated++
			}
		}
		return 0, nil, nil
	}
	key, merged := w.e.Key(w.Red, sleep)
	if fromEdge && merged {
		// Counted per edge visit, like paths and prunes, so the tally is
		// independent of which representative wins the claim race.
		w.SymmetryMerges++
	}
	if w.spare == nil {
		w.spare = w.slab.next()
	}
	w.spare.adopted.Store(fromEdge)
	entry, won := w.s.table.Claim(key, budget, w.spare)
	if !won {
		if !fromEdge {
			// A prefetch task root that lost the claim race: the subtree
			// is already covered and runTask discards a prefetch task's
			// answer, so return to the frontier instead of idling on the
			// racing worker's computation.
			return 0, nil, nil
		}
		w.MemoHits++
		if entry.adopted.Swap(true) {
			w.Pruned++
		}
		if !w.s.wait(key, entry, w.Pool.Abort()) {
			return 0, nil, engine.ErrStopped
		}
		return entry.cost, entry.tail, nil
	}
	w.spare = nil
	w.MemoMisses++
	// The canonical ranks the key just computed are captured per node:
	// child recursions overwrite the shared rank scratch.
	var earlier [64]uint64
	w.Red.EarlierMasks(choices, &earlier)
	// Publish sibling subtrees as prefetch tasks only while the frontier
	// is starving, never slept children (never walked).
	if w.Split(len(choices), budget) {
		for i := 1; i < len(choices); i++ {
			if !w.Red.Asleep(choices[i], sleep) {
				w.Handoff(i)
			}
		}
	}
	m := w.e.Save()
	// Track the winning child by index and published tail — child tails
	// are immutable once published — and build this node's tail exactly
	// once after the loop: one allocation per internal node.
	best, bestIdx, bestChild := -1, -1, []int(nil)
	for i, c := range choices {
		if w.Red.Asleep(c, sleep) {
			// A sleeping process's subtree only contains schedules that
			// commute into an earlier sibling's subtree; skip it. Counted
			// once per DAG node (only the claim winner walks children).
			w.StepsSlept++
			continue
		}
		if c.Fault != memsim.FaultNone {
			w.FaultBranches++
		}
		childSleep, err := w.e.Child(w.Red, choices, i, sleep, &earlier)
		if err != nil {
			return 0, nil, err
		}
		step := w.e.step
		tailCost, tail, err := w.dfs(depth+1, childSleep, true)
		if err != nil {
			return 0, nil, err
		}
		if tailCost >= 0 { // skip blocked children (reduction only)
			if total := step + tailCost; total > best {
				best, bestIdx, bestChild = total, i, tail
			}
		}
		w.e.Restore(m)
	}
	w.e.Release(m)
	var bestTail []int
	if w.Red == nil {
		bestTail = append(append(make([]int, 0, len(bestChild)+1), bestIdx), bestChild...)
	}
	w.s.publish(key, entry, best, bestTail)
	return best, bestTail, nil
}

// reconstructWitness materializes a worst-case schedule from a completed
// reduced search by descending the memo table from the root: at each node
// it applies, in order, the first non-slept child whose step cost plus
// memoized tail cost accounts exactly for the remainder — blocked entries
// (cost -1) never match, so the descent follows only costs realized by
// real schedules and terminates at a maximal history replaying to exactly
// rootCost. When a child's entry is absent (a sharded merge ships only
// unit-root entries), the subtree is recomputed into the shared table on
// a single-worker shadow whose tallies are discarded — callers therefore
// reconstruct only after folding the hunters' counters into the Result.
func (w *hunter) reconstructWitness(rootCost int) ([]int, error) {
	if rootCost < 0 {
		return nil, fmt.Errorf("search: internal: reduced root cost %d", rootCost)
	}
	sleep, err := w.Start(nil)
	if err != nil {
		return nil, err
	}
	var witness []int
	remaining := rootCost
	depth := 0
	for {
		choices := w.e.SettleAt(depth)
		budget := w.s.cfg.MaxDepth - depth
		if len(choices) == 0 || budget == 0 {
			if remaining != 0 {
				return nil, fmt.Errorf("search: internal: witness reconstruction reached a leaf with %d RMRs unaccounted", remaining)
			}
			return witness, nil
		}
		w.Red.StateKey(sleep) // refresh the canonical ranks at this node
		var earlier [64]uint64
		w.Red.EarlierMasks(choices, &earlier)
		m := w.e.Save()
		matched := false
		for i, c := range choices {
			if w.Red.Asleep(c, sleep) {
				continue
			}
			childSleep, err := w.e.Child(w.Red, choices, i, sleep, &earlier)
			if err != nil {
				return nil, err
			}
			step := w.e.step
			childCost := 0
			if childChoices := w.e.SettleAt(depth + 1); len(childChoices) != 0 && budget > 1 {
				key, _ := w.Red.StateKey(childSleep)
				switch entry, ok := w.s.table.Lookup(key, budget-1); {
				case !ok:
					fb := &hunter{s: w.s, e: w.e, Worker: engine.Worker{
						Pool: engine.NewPool(checkpoint.KindSearch, 1, nil, nil), Core: w.Core, Red: w.Red,
					}}
					cost, _, err := fb.dfs(depth+1, childSleep, false)
					if err != nil {
						return nil, err
					}
					childCost = cost
				case !entry.complete.Load():
					return nil, fmt.Errorf("search: internal: witness reconstruction found an unpublished entry at depth %d", depth+1)
				default:
					childCost = entry.cost
				}
			}
			if childCost >= 0 && step+childCost == remaining {
				witness = append(witness, i)
				remaining -= step
				sleep = childSleep
				depth++
				matched = true
				break
			}
			w.e.Restore(m)
		}
		w.e.Release(m)
		if !matched {
			return nil, fmt.Errorf("search: internal: witness reconstruction found no child summing to %d at depth %d", remaining, depth)
		}
	}
}

// runExhaustive drives the branch-and-bound search across cfg.Workers
// workers on the shared work-stealing frontier. Every Result field is
// identical for every worker count.
func runExhaustive(cfg Config) (*Result, error) {
	s := newBnb(cfg)
	pool := engine.NewPool(checkpoint.KindSearch, cfg.Workers, cfg.Telemetry, cfg.Meter)
	hunters := make([]*hunter, cfg.Workers)
	for i := range hunters {
		w, err := newHunter(s, pool, i)
		if err != nil {
			return nil, err
		}
		hunters[i] = w
	}
	pool.Drive(func(id int, t task) error { return hunters[id].runTask(t) })
	if err := pool.Err(); err != nil {
		return nil, err
	}
	var c checkpoint.Counters
	for _, w := range hunters {
		c.Add(w.Counters)
	}
	return s.result(hunters[0], c)
}
