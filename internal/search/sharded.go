package search

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
)

// Sharding: a run computes its units (the same internal depth-d
// prefixes checkpointed runs commit sequentially) on workers, each of
// which computes a unit against a private, per-unit memo table and
// returns only the unit root's exact answer plus the unit's counter
// tally. Because a fresh-table unit is a pure function of
// (configuration, prefix), every UnitResult — and therefore the merged
// totals — is deterministic for ANY worker count and ANY assignment of
// units to workers. The run preloads the unit-root entries and runs the
// ordinary spine pass, so the merged WorstCost and lexicographically
// least Witness are exactly the single-process answers (each memo entry
// is the exact subtree optimum, however it was computed; the witness
// descent recomputes the interior of the units it threads through). The
// Paths/Pruned tallies form their own deterministic regime: units no
// longer share interior states with each other, so cross-unit dedup that
// the shared table would have counted as prunes is recomputed instead.
// Snapshots of a sharded run carry a "|sharded"-suffixed fingerprint so
// the two regimes can never resume into each other.

// UnitResult is one worker's answer for one unit: the exact entry for
// the unit's root and the counters its private-table computation tallied.
// It is the entire cross-process payload, shipped as one JSON line.
type UnitResult struct {
	Prefix   []int               `json:"prefix"`
	Entry    checkpoint.Entry    `json:"entry"`
	Counters checkpoint.Counters `json:"counters"`
}

// ComputeUnit computes one unit against a private table, empty as a
// fresh one: a worker computing many units recycles one table across
// them. The prefix comes from outside bytes (the shard protocol), so a
// prefix that names no internal node fails with errs.CodeInvalid.
func ComputeUnit(cfg Config, prefix []int) (*UnitResult, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeExhaustive {
		return nil, errs.Failure(errs.CodeInvalid, "search: only exhaustive mode shards")
	}
	budget := cfg.MaxDepth - len(prefix)
	if budget <= 0 {
		return nil, errs.Failuref(errs.CodeInvalid, "search: unit %v is not above the depth bound %d", prefix, cfg.MaxDepth)
	}
	s := newBnb(cfg)
	defer s.release()
	w, err := newHunter(s, engine.NewPool(checkpoint.KindSearch, 1, nil, nil), 0)
	if err != nil {
		return nil, err
	}
	sleep, err := w.e.Descend(w.Red, prefix)
	var bad *engine.PrefixError
	if errors.As(err, &bad) {
		return nil, errs.Failuref(errs.CodeInvalid, "search: unit %v", err)
	}
	if err != nil {
		return nil, err
	}
	if len(w.e.SettleAt(len(prefix))) == 0 {
		return nil, errs.Failuref(errs.CodeInvalid, "search: unit %v is a leaf, not an internal node", prefix)
	}
	key, _ := w.e.Key(w.Red, sleep)
	cost, err := w.dfs(len(prefix), sleep, false)
	if err != nil {
		return nil, err
	}
	return &UnitResult{
		Prefix: append([]int(nil), prefix...),
		Entry: checkpoint.Entry{
			State:  key,
			Budget: budget,
			Cost:   cost,
			// Adopted stays false: in the merged table the first spine (or
			// sibling-unit) edge visit adopts the entry, exactly as a
			// prefetch-computed entry behaves in-process.
		},
		Counters: w.Counters,
	}, nil
}

// RunSharded runs the exhaustive search with its units computed by
// compute on workers goroutines — worker w calls compute(w, prefix) one
// unit at a time — and committed through engine.RunUnits in plan order,
// so a snapshot at ck.Path (none when it is empty) after k commits is a
// function of the configuration alone, and a resumed run finishes with
// the Result of an uninterrupted one. compute is typically ComputeUnit
// in-process or a round trip to a worker process. A unit whose compute
// fails, returns no result, or returns another unit's result fails the
// run with an error naming the unit; the units before it stay
// committed. Every goroutine RunSharded starts has exited when it
// returns.
func RunSharded(cfg Config, ck Checkpoint, workers int, compute func(worker int, prefix []int) (*UnitResult, error)) (*Result, error) {
	if workers < 1 {
		return nil, errs.Failuref(errs.CodeInvalid, "search: sharding needs at least one worker, got %d", workers)
	}
	f := &fanout{workers: workers, compute: compute, interrupt: ck.Interrupt}
	defer f.join()
	return runDurable(cfg, ck, f)
}

// fanout queues a sharded run's pending units to its worker goroutines
// all at once and hands their results to the unit loop in plan order.
type fanout struct {
	workers   int
	compute   func(worker int, prefix []int) (*UnitResult, error)
	interrupt <-chan struct{}

	slots []unitSlot // the pending units, in plan order
	next  int        // the slot the unit loop commits next
	stop  atomic.Bool
	wg    sync.WaitGroup
}

// unitSlot is one pending unit and, once done is closed, its outcome.
type unitSlot struct {
	prefix []int
	res    *UnitResult
	err    error
	done   chan struct{}
}

// start queues every unit the resumed snapshot (nil on a fresh run) has
// not committed and starts the workers.
func (f *fanout) start(units [][]int, resumed *checkpoint.Snapshot) {
	var done map[uint32]bool
	if resumed != nil {
		done = resumed.DoneSet()
	}
	for i, u := range units {
		if !done[uint32(i)] {
			f.slots = append(f.slots, unitSlot{prefix: u, done: make(chan struct{})})
		}
	}
	queue := make(chan *unitSlot, len(f.slots))
	for i := range f.slots {
		queue <- &f.slots[i]
	}
	close(queue)
	for id := range min(f.workers, len(f.slots)) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for sl := range queue {
				if f.stop.Load() {
					return
				}
				sl.res, sl.err = f.compute(id, sl.prefix)
				close(sl.done)
			}
		}()
	}
}

// join stops the workers taking new units and waits for the units they
// are computing.
func (f *fanout) join() {
	f.stop.Store(true)
	f.wg.Wait()
}

// unit is the Unit hook: wait for the next pending unit's result, then
// commit it on w — its root entry into the table, its tally onto w's.
func (f *fanout) unit(w *hunter) func(task) error {
	return func(task) error {
		sl := &f.slots[f.next]
		f.next++
		select {
		case <-sl.done: // a finished unit commits even after an interrupt
		default:
			select {
			case <-sl.done:
			case <-f.interrupt:
				return engine.ErrStopped
			}
		}
		res, err := sl.res, sl.err
		switch {
		case err != nil:
		case res == nil:
			err = errs.Failure(errs.CodeInvalid, "worker sent neither a result nor an error")
		case !slices.Equal(res.Prefix, sl.prefix):
			err = errs.Failuref(errs.CodeInvalid, "worker answered for unit %v", res.Prefix)
		default:
			err = w.s.preload([]checkpoint.Entry{res.Entry})
		}
		if err != nil {
			return fmt.Errorf("search: shard unit %v: %w", sl.prefix, err)
		}
		w.Counters.Add(res.Counters)
		return nil
	}
}
