package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// errStopped unwinds a worker's DFS once another worker has hit an
// internal error; it never escapes runExhaustive.
var errStopped = errors.New("search: stopped")

// task is one frontier entry: the choice-index prefix that re-reaches the
// subtree root from the initial state.
type task = worksteal.Task

// memoKey identifies one subtree root of the search DAG.
type memoKey struct {
	state  [16]byte
	budget int
}

// memoEntry is one claimed subtree. The claimer fills cost and tail, then
// flips complete (and closes done, if some waiter materialized it); after
// that both fields are immutable and any worker may read them.
type memoEntry struct {
	cost int   // maximal tail cost from the pair
	tail []int // lexicographically least tail achieving cost
	// complete flips once cost/tail are published. Readers fast-path on
	// it; the atomic store/load pair orders the field writes before any
	// reader that observes true.
	complete atomic.Bool
	// done is materialized lazily, under the stripe lock, by the first
	// waiter that finds the entry incomplete — so the common case (claims
	// that never block, and every single-worker run) allocates no channel.
	done chan struct{}
	// adopted marks that an edge visit has taken responsibility for the
	// entry. The first edge visit to arrive (claimer or not) adopts it
	// silently; each further edge visit counts one prune — bookkeeping
	// that makes Pruned independent of which visitor won the claim race
	// (prefetch task roots never adopt and never count). Guarded by the
	// stripe lock.
	adopted bool
}

const memoStripes = 64

// memoSlot is one open-addressing slot: the interned state hash, the
// budget biased by one (0 = empty sentinel), and the claimed entry.
type memoSlot struct {
	state  [16]byte
	budget int32
	entry  *memoEntry
}

type memoStripe struct {
	mu    sync.Mutex
	slots []memoSlot // power-of-two length
	used  int
	// slab is the current entry allocation chunk: entries are appended
	// within one 256-entry backing array (pointer-stable — the array is
	// never reallocated, a full chunk is simply replaced by a fresh one
	// and stays alive through the slots that point into it).
	slab []memoEntry
}

// memoTable is the striped claim-and-reuse table shared by all workers.
// Within a stripe the claim set is an open-addressing table over the
// interned 128-bit state hash — linear probing from a probe start taken
// from the key's second half (the stripe index consumes the first half),
// power-of-two growth at 75% load — replacing the striped map: no
// per-claim map-header hashing of the already-hashed key, slab-allocated
// entries instead of one heap object per claim. The claim-once semantics
// are identical: one winner per (state, budget) pair.
type memoTable struct {
	stripes [memoStripes]memoStripe
}

func newMemoTable() *memoTable {
	t := &memoTable{}
	for i := range t.stripes {
		// Small initial stripes: a table is built per Run (and per
		// checkpoint unit), so the empty-table cost is on the hot path for
		// shallow searches; claim-heavy runs amortize the doubling.
		t.stripes[i].slots = make([]memoSlot, 16)
	}
	return t
}

// stripeOf maps a key to its stripe.
func stripeOf(key memoKey) uint64 {
	return binary.LittleEndian.Uint64(key.state[:8]) % memoStripes
}

// alloc hands out a pointer-stable zeroed entry from the stripe's slab.
// Called with the stripe lock held.
func (s *memoStripe) alloc() *memoEntry {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]memoEntry, 0, 256)
	}
	s.slab = s.slab[:len(s.slab)+1]
	return &s.slab[len(s.slab)-1]
}

// grow doubles the slot array and re-probes every occupied slot. Called
// with the stripe lock held.
func (s *memoStripe) grow() {
	old := s.slots
	s.slots = make([]memoSlot, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.budget == 0 {
			continue
		}
		i := binary.LittleEndian.Uint64(sl.state[8:16]) & mask
		for s.slots[i].budget != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// insert claims key with a fresh entry; found returns the existing one.
// Both are called with the stripe lock held.
func (s *memoStripe) find(key memoKey) *memoEntry {
	b := int32(key.budget) + 1
	mask := uint64(len(s.slots) - 1)
	i := binary.LittleEndian.Uint64(key.state[8:16]) & mask
	for {
		sl := &s.slots[i]
		if sl.budget == 0 {
			return nil
		}
		if sl.budget == b && sl.state == key.state {
			return sl.entry
		}
		i = (i + 1) & mask
	}
}

func (s *memoStripe) insert(key memoKey, e *memoEntry) {
	b := int32(key.budget) + 1
	mask := uint64(len(s.slots) - 1)
	i := binary.LittleEndian.Uint64(key.state[8:16]) & mask
	for s.slots[i].budget != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = memoSlot{state: key.state, budget: b, entry: e}
	s.used++
	if s.used*4 >= len(s.slots)*3 {
		s.grow()
	}
}

// claim atomically claims key. won=true means the caller must compute the
// subtree and publish the entry; won=false that some visitor already has
// (or is), and wasAdopted reports whether a previous edge visit had
// already taken responsibility (the caller's prune accounting).
func (t *memoTable) claim(key memoKey, fromEdge bool) (e *memoEntry, won, wasAdopted bool) {
	s := &t.stripes[stripeOf(key)]
	s.mu.Lock()
	if e := s.find(key); e != nil {
		wasAdopted = e.adopted
		if fromEdge {
			e.adopted = true
		}
		s.mu.Unlock()
		return e, false, wasAdopted
	}
	e = s.alloc()
	e.adopted = fromEdge
	s.insert(key, e)
	s.mu.Unlock()
	return e, true, false
}

// publish installs the claimed entry's answer and wakes any waiters. The
// atomic flip is ordered after the field writes; the lock round-trip
// pairs with wait's waiter registration.
func (t *memoTable) publish(key memoKey, e *memoEntry, cost int, tail []int) {
	e.cost, e.tail = cost, tail
	e.complete.Store(true)
	s := &t.stripes[stripeOf(key)]
	s.mu.Lock()
	if e.done != nil {
		close(e.done)
	}
	s.mu.Unlock()
}

// lookup returns the entry claimed for key, or nil. Used by the witness
// reconstruction after the search has joined; it takes the stripe lock
// only to serialize against nothing in particular (the table is quiescent
// by then) and to reuse find unchanged.
func (t *memoTable) lookup(key memoKey) *memoEntry {
	s := &t.stripes[stripeOf(key)]
	s.mu.Lock()
	e := s.find(key)
	s.mu.Unlock()
	return e
}

// wait blocks until e is published or abort closes; it reports whether the
// entry completed. A visitor only ever waits on entries of strictly
// smaller budget than its own claim, so waits cannot cycle — and a
// single-worker run never waits at all (every claim it loses is one its
// own traversal already published).
func (t *memoTable) wait(key memoKey, e *memoEntry, abort <-chan struct{}) bool {
	if e.complete.Load() {
		return true
	}
	s := &t.stripes[stripeOf(key)]
	s.mu.Lock()
	if e.complete.Load() {
		s.mu.Unlock()
		return true
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	done := e.done
	s.mu.Unlock()
	select {
	case <-done:
		return true
	case <-abort:
		return false
	}
}

// bnb is the state shared by all workers of one exhaustive search.
type bnb struct {
	cfg      Config
	workers  int
	table    *memoTable
	frontier *worksteal.Frontier
	abort    chan struct{}
	stop     sync.Once
	em       *engineMetrics // nil unless cfg.Telemetry is attached
	live     bool           // tick per node: a Meter or a registry is watching

	mu       sync.Mutex
	err      error // first internal engine error
	rootCost int
	rootTail []int
	rootSet  bool
}

func (s *bnb) stopped() bool {
	select {
	case <-s.abort:
		return true
	default:
		return false
	}
}

// fatal records the first internal engine error and aborts all workers
// (including any blocked waiting on a memo entry).
func (s *bnb) fatal(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.stop.Do(func() { close(s.abort) })
}

// hunter is one worker: a private engine plus local result tallies,
// merged after the pool joins.
type hunter struct {
	s    *bnb
	id   int
	e    *pricer
	red  *engine.Reduction // nil unless the search reduces
	root *engine.Mark      // pristine initial state, for resetting between tasks

	paths      int
	truncated  int
	pruned     int
	stepsSlept int
	symMerges  int
	maxDepth   int
	nodes      int // total node visits (telemetry only; never in Result)
	ticks      int // node visits not yet flushed to cfg.Meter / telemetry

	// Telemetry-only tallies, same worker-local discipline as the
	// deterministic ones above but never folded into the Result.
	memoHits      int         // claims lost by an edge visit (entry reused)
	memoClaims    int         // claims won (subtree computed here)
	faultBranches int         // fault choices walked by edge visits
	flushed       engineTally // high-water of the last telemetry flush
}

func newHunter(s *bnb, id int) (*hunter, error) {
	e, err := newPricer(s.cfg)
	if err != nil {
		return nil, err
	}
	w := &hunter{s: s, id: id, e: e, root: e.Save()}
	if s.cfg.Reduce {
		w.red = newReduction(e, s.cfg.Model)
	}
	return w, nil
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

// runTask rewinds the worker's engine to the initial state, replays the
// prefix by choice index (pure positioning: no counters, no claims), and
// searches the subtree. The empty prefix is the root task; its answer is
// the search result.
func (w *hunter) runTask(t task) error {
	w.e.Restore(w.root)
	sleep, err := w.e.Descend(w.red, t)
	if err != nil {
		return fmt.Errorf("search: internal: task %w", err)
	}
	cost, tail, err := w.dfs(len(t), sleep, len(t) == 0)
	if w.s.live {
		if w.s.cfg.Meter != nil && w.ticks > 0 {
			w.s.cfg.Meter.Add(w.ticks)
		}
		w.ticks = 0
		w.flushTelemetry()
	}
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
// Under reduction (w.red != nil) three things change. The memo key is the
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
	if w.s.stopped() {
		return 0, nil, errStopped
	}
	w.nodes++
	if w.s.live {
		// Batched liveness ticks: one atomic flush per 1024 nodes keeps
		// the meter and the telemetry registry invisible on the hot path
		// (the remainder flushes in runTask).
		if w.ticks++; w.ticks == 1024 {
			if w.s.cfg.Meter != nil {
				w.s.cfg.Meter.Add(w.ticks)
			}
			w.ticks = 0
			w.flushTelemetry()
		}
	}
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	choices := w.e.SettleAt(depth)
	budget := w.s.cfg.MaxDepth - depth
	if len(choices) == 0 || budget == 0 {
		// A leaf is scored, not memoized: its answer is trivial and each
		// arriving schedule is one maximal history, mirroring the
		// explorer's path accounting.
		if fromEdge {
			w.paths++
			if len(choices) != 0 {
				w.truncated++
			}
		}
		return 0, nil, nil
	}
	key := memoKey{budget: budget}
	var merged bool
	key.state, merged = w.e.Key(w.red, sleep)
	if fromEdge && merged {
		// Counted per edge visit, like paths and prunes, so the tally is
		// independent of which representative wins the claim race.
		w.symMerges++
	}
	entry, won, wasAdopted := w.s.table.claim(key, fromEdge)
	if won {
		w.memoClaims++
	} else if fromEdge {
		w.memoHits++
	}
	if !won {
		if !fromEdge {
			// A prefetch task root that lost the claim race: the subtree
			// is already covered and runTask discards a prefetch task's
			// answer, so return to the frontier instead of idling on the
			// racing worker's computation.
			return 0, nil, nil
		}
		if wasAdopted {
			w.pruned++
		}
		if !w.s.table.wait(key, entry, w.s.abort) {
			return 0, nil, errStopped
		}
		return entry.cost, entry.tail, nil
	}
	// The canonical ranks the key just computed are captured per node:
	// child recursions overwrite the shared rank scratch.
	var earlier [64]uint64
	w.red.EarlierMasks(choices, &earlier)
	// Publish sibling subtrees as prefetch tasks only while the frontier
	// is starving, and never forced leaves (a leaf task would replay the
	// whole prefix to score one history) or slept children (never walked).
	split := w.s.workers > 1 && len(choices) > 1 && budget > 1 && w.s.frontier.Hungry()
	if split {
		path := w.e.Path()
		for i := 1; i < len(choices); i++ {
			if w.red.Asleep(choices[i], sleep) {
				continue
			}
			prefix := make(task, len(path)+1)
			copy(prefix, path)
			prefix[len(prefix)-1] = i
			w.s.frontier.Submit(w.id, prefix)
		}
	}
	m := w.e.Save()
	// Track the winning child by index and published tail — child tails
	// are immutable once published — and build this node's tail exactly
	// once after the loop: one allocation per internal node.
	best, bestIdx, bestChild := -1, -1, []int(nil)
	for i, c := range choices {
		if w.red.Asleep(c, sleep) {
			// A sleeping process's subtree only contains schedules that
			// commute into an earlier sibling's subtree; skip it. Counted
			// once per DAG node (only the claim winner walks children).
			w.stepsSlept++
			continue
		}
		if c.Fault != memsim.FaultNone {
			w.faultBranches++
		}
		childSleep, err := w.e.Child(w.red, choices, i, sleep, &earlier)
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
	if w.red == nil {
		bestTail = append(append(make([]int, 0, len(bestChild)+1), bestIdx), bestChild...)
	}
	w.s.table.publish(key, entry, best, bestTail)
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
	w.e.Restore(w.root)
	var witness []int
	var sleep uint64
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
		w.red.StateKey(sleep) // refresh the canonical ranks at this node
		var earlier [64]uint64
		w.red.EarlierMasks(choices, &earlier)
		m := w.e.Save()
		matched := false
		for i, c := range choices {
			if w.red.Asleep(c, sleep) {
				continue
			}
			childSleep, err := w.e.Child(w.red, choices, i, sleep, &earlier)
			if err != nil {
				return nil, err
			}
			step := w.e.step
			childCost := 0
			if childChoices := w.e.SettleAt(depth + 1); len(childChoices) != 0 && budget > 1 {
				key := memoKey{budget: budget - 1}
				key.state, _ = w.red.StateKey(childSleep)
				switch entry := w.s.table.lookup(key); {
				case entry == nil:
					fb := &hunter{
						s: &bnb{cfg: w.s.cfg, workers: 1, table: w.s.table, abort: make(chan struct{})},
						e: w.e, red: w.red,
					}
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
	s := &bnb{
		cfg:     cfg,
		workers: cfg.Workers,
		table:   newMemoTable(),
		abort:   make(chan struct{}),
		em:      newEngineMetrics(cfg.Telemetry),
	}
	s.live = cfg.Meter != nil || s.em != nil
	// Register the frontier families even when a single worker makes the
	// frontier itself unnecessary: scrapes see every family from the
	// first snapshot.
	stealMetrics := worksteal.NewMetrics(cfg.Telemetry)
	hunters := make([]*hunter, s.workers)
	for i := range hunters {
		w, err := newHunter(s, i)
		if err != nil {
			return nil, err
		}
		hunters[i] = w
	}

	if s.workers == 1 {
		if err := hunters[0].runTask(task{}); err != nil && !errors.Is(err, errStopped) {
			return nil, err
		}
	} else {
		s.frontier = worksteal.New(s.workers)
		s.frontier.SetMetrics(stealMetrics)
		s.frontier.Submit(0, task{}) // the root subtree
		var wg sync.WaitGroup
		for _, w := range hunters {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.frontier.Work(w.id, s.stopped, func(t task) {
					if err := w.runTask(t); err != nil && !errors.Is(err, errStopped) {
						s.fatal(err)
					}
				})
			}()
		}
		wg.Wait()
	}
	if s.err != nil {
		return nil, s.err
	}
	if !s.rootSet {
		return nil, errors.New("search: internal: root subtree never completed")
	}

	res := &Result{
		Mode:      ModeExhaustive,
		Model:     cfg.Model.Name(),
		WorstCost: s.rootCost,
		Witness:   s.rootTail,
		Workers:   s.workers,
	}
	for _, w := range hunters {
		res.Paths += w.paths
		res.Truncated += w.truncated
		res.Pruned += w.pruned
		res.StepsSlept += w.stepsSlept
		res.SymmetryMerges += w.symMerges
		if w.maxDepth > res.MaxDepthReached {
			res.MaxDepthReached = w.maxDepth
		}
	}
	if hunters[0].red != nil {
		// Counters are already folded in: reconstruction may recompute
		// subtrees (sharded merges) and its tallies must not count.
		res.Reduced = true
		witness, err := hunters[0].reconstructWitness(s.rootCost)
		if err != nil {
			return nil, err
		}
		res.Witness = witness
	}
	return res, nil
}
