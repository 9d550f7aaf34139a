package search

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
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
// and publishes the subtree's exact answer — the maximal tail cost. It is
// a function of the pair alone (the canonical state includes the pricing
// state, and per-step costs are state-determined), so every later arrival
// reuses the entry regardless of the cost its own prefix accumulated.
// That is a strictly stronger cut than classic (cost so far, budget)
// dominance: a dominance rule must re-explore a state reached with higher
// prefix cost, and its equal-cost corner is unsound for
// lexicographically-least witnesses (see docs/ARCHITECTURE.md). Because
// an entry is exact, a parent combines children as max(step cost + child
// tail cost), and the root answer is the global maximum for any worker
// count and any claim-race outcome.
//
// Entries hold cost only; the witness comes from one descent after the
// search (reconstructWitness): from the root, take the lowest-index child
// whose step cost plus memo cost equals the remaining cost. Unreduced,
// that is exactly the lexicographically least worst-case schedule — the
// lowest index achieving the maximum at every node — with no tail stored
// per node.
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

// memo is one claimed subtree's value, inline in its table slot and
// read and written only under the slot's stripe lock. The claimer
// publishes cost and flips complete; after that cost is immutable. A
// tail cost counts at most one RMR per step, so it never exceeds the
// budget, which the table itself stores as an int32.
type memo struct {
	cost int32 // maximal tail cost from the pair
	// complete flips once cost is published.
	complete bool
	// adopted marks that an edge visit has taken responsibility for the
	// entry. The first edge visit to arrive (claimer or not) adopts it
	// silently; each further edge visit counts one prune — bookkeeping
	// that makes Pruned independent of which visitor won the claim race
	// (prefetch task roots never adopt and never count).
	adopted bool
	// waited marks that a worker blocked on the unpublished entry and
	// left a channel in the waiter set for publish to close.
	waited bool
}

// pair names a (state, budget) table pair in the waiter set.
type pair struct {
	state  [16]byte
	budget int
}

// bnb is the state shared by all workers of one exhaustive search: the
// memo table, keyed by (canonical state, remaining budget), and the root
// answer.
type bnb struct {
	cfg   Config
	table *engine.Table[memo]
	// cores are the workers' cores, recycled with the table.
	cores []*engine.Core

	// waiters holds a channel per unpublished pair some worker blocks
	// on, made only when a multi-worker claim actually blocks. Its lock
	// is taken under a stripe lock.
	waitMu  sync.Mutex
	waiters map[pair]chan struct{}

	mu       sync.Mutex
	rootCost int
	rootSet  bool
}

// memoTables recycles memo tables across searches.
var memoTables engine.TablePool[memo]

// newBnb sets up a search on a table from memoTables. The caller
// releases the search after its last read of the table and the workers:
// the witness descent, the final export and the gauges.
func newBnb(cfg Config) *bnb {
	return &bnb{cfg: cfg, table: memoTables.Get()}
}

// release returns the table to memoTables and the workers' cores, with
// their machines, to the engine's pool.
func (s *bnb) release() {
	for _, c := range s.cores {
		c.Recycle()
	}
	memoTables.Put(s.table)
}

// arrive claims (state, budget) for a visit. won reports that the
// caller must compute the subtree and publish it. A losing prefetch
// task root returns at once: the subtree is already covered, and
// runTask discards a prefetch task's answer, so it returns to the
// frontier instead of idling on the racing worker's computation. A
// losing edge visit adopts the entry and returns its answer, waiting
// for it if it is unpublished. A visitor only ever waits on entries of
// strictly smaller budget than its own claim, so waits cannot cycle —
// and a single-worker run never waits at all (every claim it loses is
// one its own traversal already published).
func (w *hunter) arrive(state [16]byte, budget int, fromEdge bool) (cost int, won bool, err error) {
	s := w.s
	mu := s.table.Mutex(state)
	mu.Lock()
	m, won := s.table.ClaimLocked(state, budget, memo{adopted: fromEdge})
	if won || !fromEdge {
		mu.Unlock()
		return 0, won, nil
	}
	w.MemoHits++
	if m.adopted {
		w.Pruned++
	}
	m.adopted = true
	if m.complete {
		cost = int(m.cost)
		mu.Unlock()
		return cost, false, nil
	}
	m.waited = true
	done := s.waiter(pair{state, budget})
	mu.Unlock()
	select {
	case <-done:
	case <-w.Pool.Abort():
		return 0, false, engine.ErrStopped
	}
	mu.Lock()
	cost = int(s.table.FindLocked(state, budget).cost)
	mu.Unlock()
	return cost, false, nil
}

// waiter returns the channel publish closes for p, making it on the
// first wait. Called under p's stripe lock.
func (s *bnb) waiter(p pair) chan struct{} {
	s.waitMu.Lock()
	defer s.waitMu.Unlock()
	if s.waiters == nil {
		s.waiters = make(map[pair]chan struct{})
	}
	done, ok := s.waiters[p]
	if !ok {
		done = make(chan struct{})
		s.waiters[p] = done
	}
	return done
}

// publish installs a claimed pair's answer and wakes any waiters.
func (s *bnb) publish(state [16]byte, budget, cost int) {
	mu := s.table.Mutex(state)
	mu.Lock()
	m := s.table.FindLocked(state, budget)
	m.cost, m.complete = int32(cost), true
	if m.waited {
		p := pair{state, budget}
		s.waitMu.Lock()
		close(s.waiters[p])
		delete(s.waiters, p)
		s.waitMu.Unlock()
	}
	mu.Unlock()
}

// export drains the table into checkpoint entries (every entry must be
// complete, which holds between units: no worker is running).
func (s *bnb) export() []checkpoint.Entry {
	return s.table.Export(func(en *checkpoint.Entry, m memo) {
		en.Cost, en.Adopted = int(m.cost), m.adopted
	})
}

// preload seeds the table with persisted entries, born complete, so
// arrivals read them like any other finished claim. The entries come
// from outside bytes (a snapshot, the shard protocol): a cost outside
// [-1, MaxInt32], which no search publishes, fails with
// errs.CodeInvalid instead of being truncated into the slot.
func (s *bnb) preload(entries []checkpoint.Entry) error {
	for _, en := range entries {
		if en.Cost < -1 || en.Cost > math.MaxInt32 {
			return errs.Failuref(errs.CodeInvalid, "search: memo entry cost %d outside [-1, %d]", en.Cost, math.MaxInt32)
		}
	}
	return s.table.Preload(entries, func(en checkpoint.Entry) memo {
		return memo{cost: int32(en.Cost), complete: true, adopted: en.Adopted}
	})
}

// result assembles the Result from the root answer and the merged
// counters, reconstructing the witness from the table on w — after the
// counters are merged: the reconstruction may recompute subtrees, and
// its tallies must not count.
func (s *bnb) result(w *hunter, c checkpoint.Counters) (*Result, error) {
	if !s.rootSet {
		return nil, errors.New("search: internal: root subtree never completed")
	}
	witness, err := w.reconstructWitness(s.rootCost)
	if err != nil {
		return nil, err
	}
	return &Result{
		Mode:            ModeExhaustive,
		Model:           s.cfg.Model.Name(),
		WorstCost:       s.rootCost,
		Witness:         witness,
		Reduced:         w.Red != nil,
		Workers:         s.cfg.Workers,
		Paths:           c.Paths,
		Truncated:       c.Truncated,
		Pruned:          c.Pruned,
		StepsSlept:      c.StepsSlept,
		SymmetryMerges:  c.SymmetryMerges,
		MaxDepthReached: c.MaxDepthReached,
	}, nil
}

// hunter is one worker: a private pricer on the engine's worker state.
type hunter struct {
	engine.Worker
	s *bnb
	e *pricer
}

func newHunter(s *bnb, pool *engine.Pool, id int) (*hunter, error) {
	e, err := newPricer(s.cfg)
	if err != nil {
		return nil, err
	}
	s.cores = append(s.cores, e.Core)
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
	cost, err := w.dfs(len(t), sleep, len(t) == 0)
	w.Ship()
	if err != nil {
		return err
	}
	if len(t) == 0 {
		w.s.mu.Lock()
		w.s.rootCost, w.s.rootSet = cost, true
		w.s.mu.Unlock()
	}
	return nil
}

// dfs computes the exact answer for the subtree at the engine's current
// position: the maximal tail cost. fromEdge marks visits that arrive by a
// parent walking its child (plus the root), the only visits that touch
// counters; prefetch task roots pass false.
//
// Under reduction (w.Red != nil) two things change. The memo key is the
// reduced canonical key over (state, sleep) — sleep bits are part of the
// state because the explored subtree is a function of both. And children
// whose process sleeps are skipped entirely: their subtrees contain only
// schedules that commute, access by access, into an earlier sibling's
// subtree, so under an order-invariant model their bills are duplicates.
// A node whose every child is asleep (or transitively so) publishes the
// blocked sentinel -1 — its schedules are all accounted elsewhere — and
// parents skip blocked children when maximizing, so every non-negative
// published cost is realized by a schedule inside its own (state, sleep)
// subtree, which is what makes the witness descent sound.
func (w *hunter) dfs(depth int, sleep uint64, fromEdge bool) (int, error) {
	if err := w.Enter(depth); err != nil {
		return 0, err
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
		return 0, nil
	}
	key, merged := w.e.Key(w.Red, sleep)
	if fromEdge && merged {
		// Counted per edge visit, like paths and prunes, so the tally is
		// independent of which representative wins the claim race.
		w.SymmetryMerges++
	}
	cost, won, err := w.arrive(key, budget, fromEdge)
	if !won {
		return cost, err
	}
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
	best := -1
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
			return 0, err
		}
		step := w.e.step
		tailCost, err := w.dfs(depth+1, childSleep, true)
		if err != nil {
			return 0, err
		}
		if tailCost >= 0 { // skip blocked children (reduction only)
			best = max(best, step+tailCost)
		}
		w.e.Restore(m)
	}
	w.e.Release(m)
	w.s.publish(key, budget, best)
	return best, nil
}

// reconstructWitness materializes a worst-case schedule from a completed
// search by descending the memo table from the root: at each node it
// applies, in order, the first non-slept child whose step cost plus
// memoized tail cost accounts exactly for the remainder. Unreduced, every
// entry is the exact subtree maximum, so the lowest matching index is the
// lowest index achieving the maximum and the descent yields the
// lexicographically least worst-case schedule. Under reduction blocked
// entries (cost -1) never match, so the descent follows only costs
// realized by real schedules and terminates at a maximal history
// replaying to exactly rootCost. When a child's entry is absent (a
// sharded merge ships only unit-root entries), the subtree is recomputed
// into the shared table on a single-worker shadow whose tallies are
// discarded — callers therefore reconstruct only after folding the
// hunters' counters into the Result.
func (w *hunter) reconstructWitness(rootCost int) ([]int, error) {
	if rootCost < 0 {
		return nil, fmt.Errorf("search: internal: root cost %d", rootCost)
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
		if w.Red != nil {
			w.Red.StateKey(sleep) // refresh the canonical ranks at this node
		}
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
				key, _ := w.e.Key(w.Red, childSleep)
				switch entry, ok := w.s.table.Lookup(key, budget-1); {
				case !ok:
					fb := &hunter{s: w.s, e: w.e, Worker: engine.Worker{
						Pool: engine.NewPool(checkpoint.KindSearch, 1, nil, nil), Core: w.Core, Red: w.Red,
					}}
					cost, err := fb.dfs(depth+1, childSleep, false)
					if err != nil {
						return nil, err
					}
					childCost = cost
				case !entry.complete:
					return nil, fmt.Errorf("search: internal: witness reconstruction found an unpublished entry at depth %d", depth+1)
				default:
					childCost = int(entry.cost)
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
	defer s.release()
	pool := engine.NewPool(checkpoint.KindSearch, cfg.Workers, cfg.Telemetry, cfg.Meter)
	pool.WatchTable(s.table)
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
