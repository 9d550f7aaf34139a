package explore

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/worksteal"
)

// Checkpointed exploration mirrors the search's unit decomposition (see
// internal/search/checkpointed.go), with one structural difference:
// exploration has no bottom-up answer to assemble, so the shallow tree
// is processed FIRST — a single shallow pass runs the ordinary counting
// DFS down to the shard depth, claiming and counting exactly as the
// plain engine would, and emits each internal shard-depth node it wins
// as one unit. Units then commit sequentially (replay the prefix purely,
// expand the children — the unit root itself was already counted and
// claimed by the shallow pass), with a snapshot of the claim table and
// counters between commits. The persisted unit list doubles as the
// record of the shallow pass: a resumed run never re-runs it, which is
// what keeps every claim and every tally exactly-once across kills.
//
// The equivalence argument is the explorer's own worker-independence
// argument re-applied: the explored set is the set of distinct
// (canonical state, budget) pairs reachable from the root — a function
// of the configuration — and each counter counts tree edges into that
// set, so any partition of the traversal that preserves claim-once
// reproduces the plain Result exactly. Failing runs are the exception:
// a property violation aborts mid-traversal, so its partial counters
// (though not the violation itself) depend on the decomposition.

// Checkpoint configures a durable exploration.
type Checkpoint struct {
	// Path is the snapshot file (required).
	Path string
	// Tag folds a caller-side identity (the algorithm name) into the
	// fingerprint.
	Tag string
	// ShardDepth is the unit prefix depth. Zero means 3; the value is
	// clamped to MaxDepth-1.
	ShardDepth int
	// Every writes a snapshot after every Every committed units (zero
	// means 1).
	Every int
	// Resume loads the snapshot at Path instead of starting fresh.
	Resume bool
	// StopAfter, when positive, interrupts the run after that many units
	// committed in this invocation (deterministic kill for tests).
	StopAfter int
	// Interrupt, when non-nil, aborts the run when it becomes readable.
	Interrupt <-chan struct{}
}

// Fingerprint renders the configuration identity an exploration
// snapshot is bound to. The resolved engine is included: dedup and
// reduction change every counter, so the regimes must never resume into
// each other.
func Fingerprint(tag string, cfg Config, shardDepth int, dedup, reduce bool) string {
	eng := EngineBacktrack
	if reduce {
		eng = EngineBacktrackDedupPOR
	} else if dedup {
		eng = EngineBacktrackDedup
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explore|%s|n=%d|depth=%d|engine=%s|shard=%d|scripts=",
		tag, cfg.N, cfg.MaxDepth, eng, shardDepth)
	if cfg.Faults.Enabled() {
		// Fault configs must never resume into fault-free snapshots (or
		// vice versa): the marker is appended only when enabled, keeping
		// k=0 fingerprints byte-identical to pre-fault ones.
		fmt.Fprintf(&b, "faults[%s]|", cfg.Faults)
	}
	for pid := 0; pid < cfg.N; pid++ {
		script, ok := cfg.Scripts[memsim.PID(pid)]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "p%d:", pid)
		for _, k := range script {
			fmt.Fprintf(&b, "%d,", k)
		}
		b.WriteByte(';')
	}
	return b.String()
}

type xtally struct{ paths, truncated, deduped, slept, symMerges int }

func xgrab(w *searcher) xtally {
	return xtally{
		paths: w.paths, truncated: w.truncated, deduped: w.deduped,
		slept: w.stepsSlept, symMerges: w.symMerges,
	}
}

func xdelta(prev xtally, w *searcher) checkpoint.Counters {
	return checkpoint.Counters{
		Paths:           w.paths - prev.paths,
		Truncated:       w.truncated - prev.truncated,
		Deduped:         w.deduped - prev.deduped,
		StepsSlept:      w.stepsSlept - prev.slept,
		SymmetryMerges:  w.symMerges - prev.symMerges,
		MaxDepthReached: w.maxDepth,
	}
}

// shallowPass runs the counting DFS from the root down to shard depth d,
// behaving at every node exactly like the plain engine — leaves count
// and check, internal nodes claim (losing arrivals dedup) — except that
// a won internal node AT depth d becomes a unit instead of recursing.
func (w *searcher) shallowPass(d int, units *[][]int) error {
	var walk func(depth int, sleep uint64) error
	walk = func(depth int, sleep uint64) error {
		if w.s.stop.Load() {
			return errStopped
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
		if depth == d {
			*units = append(*units, append([]int(nil), w.e.Path()...))
			return nil
		}
		var earlier [64]uint64
		w.red.EarlierMasks(choices, &earlier)
		m := w.e.Save()
		for i, c := range choices {
			if w.red.Asleep(c, sleep) {
				w.stepsSlept++
				continue
			}
			childSleep, err := w.e.Child(w.red, choices, i, sleep, &earlier)
			if err != nil {
				return err
			}
			if err := walk(depth+1, childSleep); err != nil {
				return err
			}
			w.e.Restore(m)
		}
		w.e.Release(m)
		return nil
	}
	return walk(0, 0)
}

// runUnit replays the unit's prefix (pure positioning) and expands its
// children. The unit root was counted, claimed and (if failing) checked
// by the shallow pass, so the expansion starts one level below it.
func (w *searcher) runUnit(t task) error {
	w.e.Restore(w.root)
	sleep, err := w.e.Descend(w.red, t)
	if err != nil {
		return fmt.Errorf("explore: internal: unit %w", err)
	}
	choices := w.e.SettleAt(len(t))
	var earlier [64]uint64
	if w.red.POR() {
		// The unit root was claimed by the shallow pass; recompute its key
		// here only to refresh the canonical ranks for the child loop.
		w.red.StateKey(sleep)
		w.red.EarlierMasks(choices, &earlier)
	}
	m := w.e.Save()
	for i, c := range choices {
		if w.red.Asleep(c, sleep) {
			w.stepsSlept++
			continue
		}
		childSleep, err := w.e.Child(w.red, choices, i, sleep, &earlier)
		if err != nil {
			return err
		}
		if err := w.dfs(len(t)+1, childSleep); err != nil {
			return err
		}
		w.e.Restore(m)
	}
	w.e.Release(m)
	return nil
}

// RunCheckpointed runs a backtracking exploration durably: a shallow
// pass enumerates units, units commit in order with snapshots between
// commits, and a killed run resumes to the byte-identical Result of an
// uninterrupted (or plain) run. Only the backtracking engines
// checkpoint; EngineReplay is rejected. Interruption (ck.Interrupt or
// ck.StopAfter) returns an error classified as errs.ClassInterrupt.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "explore: checkpoint requires a path")
	}
	var dedup, reduce bool
	switch cfg.Engine {
	case EngineBacktrack:
		dedup = false
	case EngineBacktrackDedup:
		dedup = true
	case EngineBacktrackDedupPOR:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: EngineBacktrackDedupPOR requires a resumable instance")
		}
		dedup, reduce = true, true
	case EngineAuto:
		if !backtrackable(cfg) {
			return nil, errs.Failure(errs.CodeInvalid,
				"explore: checkpointing needs a resumable algorithm tier (replay engine cannot checkpoint)")
		}
		dedup = true
	default:
		return nil, errs.Failure(errs.CodeInvalid,
			"explore: engine "+cfg.Engine.String()+" cannot checkpoint")
	}
	eng := EngineBacktrack
	if reduce {
		eng = EngineBacktrackDedupPOR
	} else if dedup {
		eng = EngineBacktrackDedup
	}
	d := ck.ShardDepth
	if d <= 0 {
		d = 3
	}
	if max := cfg.MaxDepth - 1; d > max {
		d = max
	}
	if d < 0 {
		d = 0
	}
	every := ck.Every
	if every <= 0 {
		every = 1
	}
	fp := Fingerprint(ck.Tag, cfg, d, dedup, reduce)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Telemetry in checkpointed mode is committed-unit-granular, exactly
	// as in search (see internal/search/checkpointed.go): the engine
	// runs without a live registry (s.em stays nil) and tally deltas
	// land on the registry only when the unit that produced them — or
	// the shallow pass — commits to disk.
	reg := cfg.Telemetry
	em := newEngineMetrics(reg)
	worksteal.NewMetrics(reg) // frontier families at zero (single-worker)
	ckm := checkpoint.NewMetrics(reg)
	unitNs := reg.Histogram("repro_unit_ns",
		1e5, 1e6, 1e7, 1e8, 1e9, 1e10)

	s := &search{cfg: cfg, workers: 1, reduce: reduce}
	if dedup {
		s.table = newDedupTable()
	}
	if ck.Interrupt != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ck.Interrupt:
				s.stop.Store(true)
			case <-finished:
			}
		}()
	}
	w, err := newSearcher(s, 0)
	if err != nil {
		return nil, err
	}

	counters := checkpoint.Counters{}
	var units [][]int
	var doneList []uint32
	doneSet := map[uint32]bool{}

	finish := func(err error) (*Result, error) {
		res := &Result{
			Engine:          eng,
			Workers:         workers,
			Paths:           counters.Paths,
			Truncated:       counters.Truncated,
			StatesDeduped:   counters.Deduped,
			StepsSlept:      counters.StepsSlept,
			SymmetryMerges:  counters.SymmetryMerges,
			MaxDepthReached: counters.MaxDepthReached,
		}
		return res, err
	}
	// interruptedOrFailed translates a unit's errStopped into the real
	// cause, mirroring runBacktrack's postlude.
	cause := func(fallback string) (*Result, error) {
		s.mu.Lock()
		ferr, fail := s.err, s.fail
		s.mu.Unlock()
		if ferr != nil {
			return finish(ferr)
		}
		if fail != nil {
			return finish(fmt.Errorf("explore: property failed on schedule %v: %w", fail.desc, fail.err))
		}
		return nil, errs.Interrupted(fallback)
	}

	if ck.Resume {
		snap, err := checkpoint.Read(ck.Path)
		if err != nil {
			return nil, err
		}
		if snap.Kind != checkpoint.KindExplore {
			return nil, errs.Failuref(errs.CodeConflict,
				"explore: %s is a %s snapshot", ck.Path, snap.Kind)
		}
		if snap.Fingerprint != fp {
			return nil, errs.Failuref(errs.CodeConflict,
				"explore: snapshot %s was written by a different configuration (%s, want %s)",
				ck.Path, snap.Fingerprint, fp)
		}
		counters = snap.Counters
		units = snap.Units
		doneList = snap.Done
		doneSet = snap.DoneSet()
		if s.table != nil {
			s.table.preload(snap.Entries)
		}
		// Continue the telemetry counters from the killed run's last
		// commit (monotone across resumes); a pre-v4 snapshot carries no
		// telemetry block, so seed the engine families from the
		// deterministic counters instead.
		if len(snap.Telemetry) > 0 {
			checkpoint.PreloadCounters(reg, snap.Telemetry)
		} else if reg != nil {
			reg.AddCounterValues([]telemetry.CounterValue{
				{Name: "repro_engine_paths_total", Value: int64(snap.Counters.Paths)},
				{Name: "repro_engine_truncated_total", Value: int64(snap.Counters.Truncated)},
				{Name: "repro_engine_deduped_total", Value: int64(snap.Counters.Deduped)},
				{Name: "repro_engine_sleep_prunes_total", Value: int64(snap.Counters.StepsSlept)},
				{Name: "repro_engine_symmetry_merges_total", Value: int64(snap.Counters.SymmetryMerges)},
			})
		}
	} else {
		// The shallow pass: everything above (and at) the shard depth is
		// counted and claimed now, once; the snapshot written below is the
		// only record of it a resumed run ever needs.
		prev := xgrab(w)
		prevTel := w.telTally()
		if err := w.shallowPass(d, &units); err != nil {
			if errors.Is(err, errStopped) {
				return cause("explore: interrupted during shallow pass (nothing persisted)")
			}
			return nil, err
		}
		counters.Add(xdelta(prev, w))
		em.addTally(0, prevTel, w.telTally(), w.e.UndoMax(), w.maxDepth)
	}

	writeSnap := func() error {
		snap := &checkpoint.Snapshot{
			Kind:        checkpoint.KindExplore,
			Fingerprint: fp,
			ShardDepth:  d,
			Units:       units,
			Done:        doneList,
			Counters:    counters,
		}
		if s.table != nil {
			snap.Entries = s.table.export()
		}
		// The write-instrumentation families necessarily lag one commit
		// (the sample is taken inside the body this write persists); the
		// engine families are exact at every commit.
		snap.Telemetry = checkpoint.SampleCounters(reg)
		snap.SortEntries()
		return ckm.Write(ck.Path, snap)
	}
	if !ck.Resume {
		if err := writeSnap(); err != nil {
			return nil, err
		}
	}

	committed, unsnapped := 0, 0
	for ui := range units {
		if doneSet[uint32(ui)] {
			continue
		}
		if s.stop.Load() {
			return cause("explore: interrupted between units")
		}
		prev := xgrab(w)
		prevTel := w.telTally()
		unitStart := time.Now()
		if err := w.runUnit(task(units[ui])); err != nil {
			if errors.Is(err, errStopped) {
				return cause("explore: interrupted mid-unit")
			}
			return nil, err
		}
		counters.Add(xdelta(prev, w))
		em.addTally(0, prevTel, w.telTally(), w.e.UndoMax(), w.maxDepth)
		unitNs.Observe(0, time.Since(unitStart).Nanoseconds())
		doneList = append(doneList, uint32(ui))
		committed++
		unsnapped++
		if unsnapped >= every {
			if err := writeSnap(); err != nil {
				return nil, err
			}
			unsnapped = 0
		}
		if ck.StopAfter > 0 && committed >= ck.StopAfter {
			if unsnapped > 0 {
				if err := writeSnap(); err != nil {
					return nil, err
				}
			}
			return nil, errs.Interrupted(fmt.Sprintf("explore: stopped after %d units as requested", committed))
		}
	}
	if unsnapped > 0 {
		if err := writeSnap(); err != nil {
			return nil, err
		}
	}
	return finish(nil)
}
