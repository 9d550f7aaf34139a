// Package worksteal is the work-stealing frontier shared by the
// explorer's sharded enumeration and the searcher's branch-and-bound:
// per-worker deques of subtree prefixes (a tree node is reachable from
// the root by its choice-index sequence, so subtrees hand off between
// workers as bare []int tasks), owner pops LIFO at the bottom so its own
// work stays depth-first and cache-warm, thieves steal the oldest —
// shallowest, largest — prefix at the top, and the pool loop spins down
// with exponential idle backoff once every deque is empty and no worker
// holds a task (tasks are only created by a worker holding one, so that
// condition is stable). Each is the flat counterpart for a fixed list of
// independent jobs: a bounded pool that hands out job indices from one
// counter, shared by the suite runner, the Runner facade's batches and
// the searcher's random walks.
package worksteal

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Task is one frontier entry: the choice-index prefix that re-reaches a
// subtree root from the initial state.
type Task []int

// deque is one worker's stealable frontier. A mutex suffices: pushes and
// pops happen at most once per split or task, far off the per-node hot
// path (a Chase-Lev lock-free deque would buy nothing at this
// granularity).
type deque struct {
	mu    sync.Mutex
	tasks []Task
}

func (d *deque) push(t Task) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

// popBottom removes the most recently pushed task — the owner's own,
// deepest, depth-first continuation.
func (d *deque) popBottom() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil, false
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	return t, true
}

// stealTop removes the oldest task — the shallowest prefix, rooting the
// largest expected subtree, which amortizes the thief's replay cost best.
func (d *deque) stealTop() (Task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return nil, false
	}
	t := d.tasks[0]
	d.tasks[0] = nil
	d.tasks = d.tasks[1:]
	return t, true
}

// Metrics is the frontier's telemetry bundle. All fields tolerate nil
// (the zero Metrics is a no-op), so an uninstrumented frontier pays
// only nil checks. The counts are scheduling facts — which worker
// stole what, when someone idled — and are inherently nondeterministic
// across runs; they never feed back into task order or any Result
// field.
type Metrics struct {
	Steals       *telemetry.Counter // tasks taken from another worker's deque
	Splits       *telemetry.Counter // subtree prefixes submitted for stealing
	IdleSleeps   *telemetry.Counter // backoff naps while every deque was empty
	Terminations *telemetry.Counter // pool-loop exits on global quiescence
}

// NewMetrics registers the frontier's counter families on reg (nil reg
// yields the no-op bundle).
func NewMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Steals:       reg.Counter("repro_worksteal_steals_total"),
		Splits:       reg.Counter("repro_worksteal_splits_total"),
		IdleSleeps:   reg.Counter("repro_worksteal_idle_sleeps_total"),
		Terminations: reg.Counter("repro_worksteal_terminations_total"),
	}
}

// Frontier is the shared task state of one sharded traversal.
type Frontier struct {
	workers int
	queues  []*deque
	qlen    atomic.Int64 // tasks queued across all deques
	active  atomic.Int64 // workers currently holding a task
	metrics Metrics
}

// SetMetrics attaches a telemetry bundle. Call before Work starts; the
// zero bundle (the default) records nothing.
func (f *Frontier) SetMetrics(m Metrics) { f.metrics = m }

// New returns a frontier for the given worker count.
func New(workers int) *Frontier {
	f := &Frontier{workers: workers, queues: make([]*deque, workers)}
	for i := range f.queues {
		f.queues[i] = &deque{}
	}
	return f
}

// Hungry reports whether the frontier is starving: fewer queued tasks
// than twice the worker count. Callers split their current node into
// stealable prefixes only while this holds, which keeps task (and
// prefix-replay) overhead near zero once every worker is saturated.
func (f *Frontier) Hungry() bool {
	return f.qlen.Load() < int64(2*f.workers)
}

// Submit hands a subtree prefix to owner's deque.
func (f *Frontier) Submit(owner int, t Task) {
	f.qlen.Add(1)
	f.queues[owner].push(t)
	f.metrics.Splits.Inc(owner)
}

// Work drives worker id's loop: drain the own deque bottom-first, steal
// from siblings when empty, exit when every deque is empty and no worker
// holds a task, or when stopped reports true. run owns error handling
// (record and trip the stop signal); the loop itself never fails.
func (f *Frontier) Work(id int, stopped func() bool, run func(Task)) {
	backoff := time.Microsecond
	for {
		if stopped() {
			return
		}
		f.active.Add(1)
		t, ok := f.queues[id].popBottom()
		if !ok {
			t, ok = f.steal(id)
			if ok {
				f.metrics.Steals.Inc(id)
			}
		}
		if !ok {
			if f.active.Add(-1) == 0 && f.qlen.Load() == 0 {
				f.metrics.Terminations.Inc(id)
				return
			}
			f.metrics.IdleSleeps.Inc(id)
			time.Sleep(backoff)
			if backoff < 256*time.Microsecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Microsecond
		f.qlen.Add(-1)
		run(t)
		f.active.Add(-1)
	}
}

// steal scans the other workers' deques round-robin from the right
// neighbor, taking the top (shallowest) task of the first non-empty one.
func (f *Frontier) steal(id int) (Task, bool) {
	for i := 1; i < f.workers; i++ {
		if t, ok := f.queues[(id+i)%f.workers].stealTop(); ok {
			return t, true
		}
	}
	return nil, false
}

// Each calls run(i) for every i in [0, n) on up to workers goroutines,
// handing out indices in increasing order from one atomic counter.
// workers is clamped to [1, n]; the caller's goroutine is one of the
// workers, so a single worker runs everything on the caller. Dispatch
// stops once ctx is done or a run returns true; runs already under way
// finish before Each returns, and unstarted indices are never run.
func Each(ctx context.Context, workers, n int, run func(i int) (stop bool)) {
	workers = max(1, min(workers, n))
	var next atomic.Int64
	var stopped atomic.Bool
	loop := func() {
		for !stopped.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if run(i) {
				stopped.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop()
		}()
	}
	loop()
	wg.Wait()
}
