package search

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/worksteal"
)

// Checkpointed execution: the same branch-and-bound search, partitioned
// into a deterministic sequence of units — the internal tree nodes at a
// fixed shard depth, each processed as a prefetch task against the
// shared memo table — followed by one spine pass from the root that
// computes the shallow tree and links the memoized units into the final
// answer. Snapshots are written only between committed units, so a
// snapshot always holds a consistent table (every entry fully computed)
// plus the exact counter deltas of the committed units; a resumed run
// replays nothing, skips the committed units, and finishes with a Result
// byte-identical to an uninterrupted run's.
//
// Why the totals cannot drift across kills: every Result field is
// traversal-order-independent. Each (canonical state, budget) node is
// claimed and computed exactly once across the whole decomposed run (the
// table persists across units), each DAG edge is walked exactly once by
// the node that owns its parent, Paths counts edges into leaves, and
// Pruned counts edge arrivals at already-adopted nodes — all functions
// of the configuration alone, exactly the argument that already makes
// the in-memory search worker-count-independent (see exhaustive.go).
// Unit roots are claimed as prefetch visits (never adopted, never
// counted), so the partition itself leaves no fingerprint in the tallies.

// Checkpoint configures a durable run.
type Checkpoint struct {
	// Path is the snapshot file (required).
	Path string
	// Tag folds a caller-side identity — typically the algorithm name,
	// which the Factory hides — into the fingerprint.
	Tag string
	// ShardDepth is the unit prefix depth. Zero means 3; the value is
	// clamped to MaxDepth-1.
	ShardDepth int
	// Every writes a snapshot after every Every committed units (zero
	// means 1, i.e. after each unit).
	Every int
	// Resume loads the snapshot at Path instead of starting fresh; the
	// snapshot's kind and fingerprint must match.
	Resume bool
	// StopAfter, when positive, interrupts the run after that many units
	// committed in this invocation (a deterministic kill, for tests and
	// smokes). The final snapshot is written before returning.
	StopAfter int
	// Interrupt, when non-nil, aborts the run when it becomes readable;
	// the last committed snapshot remains valid for resumption.
	Interrupt <-chan struct{}
}

// Fingerprint renders the configuration identity a snapshot is bound to.
// Everything that determines the search space is included — algorithm
// tag, process count, scripts, depth bound, model, shard depth — and the
// sharded (fresh-table-per-unit) counter regime is marked distinctly so
// its snapshots cannot resume into a shared-table run or vice versa. A
// reduced run (Config.Reduce with a capable model) is likewise marked:
// its memo entries key (state, sleep) pairs and carry no tails, so they
// must never seed an unreduced table or vice versa.
func Fingerprint(tag string, cfg Config, shardDepth int, sharded bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "search|%s|n=%d|depth=%d|model=%s|shard=%d|scripts=",
		tag, cfg.N, cfg.MaxDepth, cfg.Model.Name(), shardDepth)
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
	if cfg.Faults.Enabled() {
		// A fault-enabled search explores a strictly larger schedule space
		// and keys its memo entries with the consumed fault budget, so its
		// snapshots must never resume into a fault-free run or vice versa
		// (and distinct policies must never cross-seed each other).
		fmt.Fprintf(&b, "|faults[%s]", cfg.Faults)
	}
	if sharded {
		b.WriteString("|sharded")
	}
	if reduceEffective(cfg) {
		b.WriteString("|reduce")
		if cfg.Faults.Enabled() {
			// Reduced keys under faults place the consumed fault budget
			// after the machine state (the explorer's layout, shared
			// through the node-expansion core); snapshots written with the
			// earlier budget-first layout must not resume into this one.
			b.WriteString("|keys2")
		}
	}
	return b.String()
}

// reduceEffective reports whether cfg actually runs the reduced regime:
// Reduce requested and the model asserts at least one of the reduction
// capabilities (otherwise newReduction degrades to the plain engine).
func reduceEffective(cfg Config) bool {
	return cfg.Reduce &&
		(model.OrderInvariantCost(cfg.Model) || model.PermutationInvariantCost(cfg.Model))
}

// clampShardDepth resolves the unit depth: default 3, never at or past
// the depth bound (the last level must belong to the spine so units are
// always internal nodes).
func clampShardDepth(cfg Config, d int) int {
	if d <= 0 {
		d = 3
	}
	if max := cfg.MaxDepth - 1; d > max {
		d = max
	}
	if d < 0 {
		d = 0
	}
	return d
}

// EffectiveShardDepth reports the unit depth a run with this config and
// requested depth actually uses — what a coordinator must fingerprint.
func EffectiveShardDepth(cfg Config, d int) (int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return 0, err
	}
	return clampShardDepth(cfg, d), nil
}

// ExpandUnits enumerates the units of cfg at shardDepth: the choice
// prefixes of every internal tree node at exactly that depth, in
// lexicographic order. Leaves above the shard depth carry no unit (the
// spine pass scores them). The enumeration is a pure expansion — no
// table, no counters — so coordinator and workers can re-derive the
// identical list independently.
func ExpandUnits(cfg Config, shardDepth int) ([][]int, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	return expandUnits(cfg, clampShardDepth(cfg, shardDepth))
}

func expandUnits(cfg Config, d int) ([][]int, error) {
	e, err := newPricer(cfg)
	if err != nil {
		return nil, err
	}
	// The expansion mirrors the reduced tree exactly: a slept child is
	// never a unit root (the search never walks it), so the unit list —
	// like everything else — is a pure function of the configuration.
	var red *engine.Reduction
	if cfg.Reduce {
		red = newReduction(e, cfg.Model)
	}
	var units [][]int
	var walk func(depth int, prefix []int, sleep uint64) error
	walk = func(depth int, prefix []int, sleep uint64) error {
		choices := e.SettleAt(depth)
		if len(choices) == 0 || cfg.MaxDepth-depth == 0 {
			return nil
		}
		if depth == d {
			units = append(units, append([]int(nil), prefix...))
			return nil
		}
		var earlier [64]uint64
		if red.POR() {
			red.StateKey(sleep)
			red.EarlierMasks(choices, &earlier)
		}
		m := e.Save()
		for i, c := range choices {
			if red.Asleep(c, sleep) {
				continue
			}
			childSleep, err := e.Child(red, choices, i, sleep, &earlier)
			if err != nil {
				return err
			}
			if err := walk(depth+1, append(prefix, i), childSleep); err != nil {
				return err
			}
			e.Restore(m)
		}
		e.Release(m)
		return nil
	}
	if err := walk(0, nil, 0); err != nil {
		return nil, err
	}
	return units, nil
}

// export drains the table into checkpoint entries (every entry must be
// complete, which holds between units: no worker is running).
func (t *memoTable) export() []checkpoint.Entry {
	var out []checkpoint.Entry
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, sl := range s.slots {
			if sl.budget == 0 {
				continue
			}
			out = append(out, checkpoint.Entry{
				State:   sl.state,
				Budget:  int(sl.budget) - 1,
				Cost:    sl.entry.cost,
				Tail:    append([]int(nil), sl.entry.tail...),
				Adopted: sl.entry.adopted,
			})
		}
		s.mu.Unlock()
	}
	return out
}

// preload seeds the table with persisted entries, born complete, so
// arrivals read them like any other finished claim (no waiter ever
// materializes their done channel).
func (t *memoTable) preload(entries []checkpoint.Entry) {
	for _, en := range entries {
		key := memoKey{state: en.State, budget: en.Budget}
		s := &t.stripes[stripeOf(key)]
		s.mu.Lock()
		e := s.alloc()
		e.cost = en.Cost
		e.tail = append([]int(nil), en.Tail...)
		e.adopted = en.Adopted
		e.complete.Store(true)
		s.insert(key, e)
		s.mu.Unlock()
	}
}

// tally snapshots a hunter's cumulative counters so per-unit deltas can
// be attributed to the unit that produced them.
type tally struct{ paths, truncated, pruned, stepsSlept, symMerges int }

func grab(w *hunter) tally {
	return tally{
		paths: w.paths, truncated: w.truncated, pruned: w.pruned,
		stepsSlept: w.stepsSlept, symMerges: w.symMerges,
	}
}

// delta converts counter movement since prev into checkpoint counters.
// MaxDepthReached is a running maximum, which Counters.Add merges by max,
// so the cumulative value passes through unchanged.
func delta(prev tally, w *hunter) checkpoint.Counters {
	return checkpoint.Counters{
		Paths:           w.paths - prev.paths,
		Truncated:       w.truncated - prev.truncated,
		Pruned:          w.pruned - prev.pruned,
		StepsSlept:      w.stepsSlept - prev.stepsSlept,
		SymmetryMerges:  w.symMerges - prev.symMerges,
		MaxDepthReached: w.maxDepth,
	}
}

// RunCheckpointed runs the exhaustive search durably: units commit in
// order, a snapshot lands at ck.Path between commits, and an interrupted
// run resumes from the snapshot to the byte-identical Result an
// uninterrupted run produces. An interruption (ck.Interrupt, or the
// deterministic ck.StopAfter) returns an error classified as
// errs.ClassInterrupt; everything already committed is on disk.
func RunCheckpointed(cfg Config, ck Checkpoint) (*Result, error) {
	cfg, err := normalize(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeExhaustive {
		return nil, errs.Failure(errs.CodeInvalid,
			"search: only exhaustive mode checkpoints (sample walks are cheap to rerun)")
	}
	if ck.Path == "" {
		return nil, errs.Failure(errs.CodeInvalid, "search: checkpoint requires a path")
	}
	d := clampShardDepth(cfg, ck.ShardDepth)
	every := ck.Every
	if every <= 0 {
		every = 1
	}
	fp := Fingerprint(ck.Tag, cfg, d, false)
	units, err := expandUnits(cfg, d)
	if err != nil {
		return nil, err
	}

	counters := checkpoint.Counters{}
	var doneList []uint32
	var resumeEntries []checkpoint.Entry
	doneSet := map[uint32]bool{}
	if ck.Resume {
		snap, err := checkpoint.Read(ck.Path)
		if err != nil {
			return nil, err
		}
		if snap.Kind != checkpoint.KindSearch {
			return nil, errs.Failuref(errs.CodeConflict,
				"search: %s is a %s snapshot", ck.Path, snap.Kind)
		}
		if snap.Fingerprint != fp {
			return nil, errs.Failuref(errs.CodeConflict,
				"search: snapshot %s was written by a different configuration (%s, want %s)",
				ck.Path, snap.Fingerprint, fp)
		}
		if !equalUnits(snap.Units, units) {
			return nil, errs.Defectf("search: snapshot %s unit list disagrees with re-derivation", ck.Path)
		}
		counters = snap.Counters
		doneList = snap.Done
		doneSet = snap.DoneSet()
		resumeEntries = snap.Entries
		// Continue the telemetry counters from where the killed run
		// committed, so rates and totals stay monotone across resumes. A
		// pre-v4 snapshot has no telemetry block; seed the engine
		// families from the deterministic counters instead (the best
		// cumulative record such a snapshot carries).
		if len(snap.Telemetry) > 0 {
			checkpoint.PreloadCounters(cfg.Telemetry, snap.Telemetry)
		} else if cfg.Telemetry != nil {
			cfg.Telemetry.AddCounterValues([]telemetry.CounterValue{
				{Name: "repro_engine_paths_total", Value: int64(snap.Counters.Paths)},
				{Name: "repro_engine_truncated_total", Value: int64(snap.Counters.Truncated)},
				{Name: "repro_engine_pruned_total", Value: int64(snap.Counters.Pruned)},
				{Name: "repro_engine_sleep_prunes_total", Value: int64(snap.Counters.StepsSlept)},
				{Name: "repro_engine_symmetry_merges_total", Value: int64(snap.Counters.SymmetryMerges)},
			})
		}
	}

	// Telemetry in checkpointed mode is committed-unit-granular: the
	// engine runs without a live registry (s.em stays nil, so the
	// per-1024-node flush path is off) and tally deltas land on the
	// registry only when the unit that produced them commits. That is
	// what makes the persisted counters exact across kills: a mid-unit
	// abort leaves the registry exactly at the last commit, matching the
	// snapshot a resumed run preloads from.
	reg := cfg.Telemetry
	em := newEngineMetrics(reg)
	worksteal.NewMetrics(reg) // frontier families at zero (single-worker)
	ckm := checkpoint.NewMetrics(reg)
	unitNs := reg.Histogram("repro_unit_ns",
		1e5, 1e6, 1e7, 1e8, 1e9, 1e10)

	s := &bnb{cfg: cfg, workers: 1, table: newMemoTable(), abort: make(chan struct{})}
	s.live = cfg.Meter != nil
	s.table.preload(resumeEntries)
	if ck.Interrupt != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ck.Interrupt:
				s.stop.Do(func() { close(s.abort) })
			case <-finished:
			}
		}()
	}
	w, err := newHunter(s, 0)
	if err != nil {
		return nil, err
	}

	writeSnap := func() error {
		snap := &checkpoint.Snapshot{
			Kind:        checkpoint.KindSearch,
			Fingerprint: fp,
			ShardDepth:  d,
			Units:       units,
			Done:        doneList,
			Counters:    counters,
			Entries:     s.table.export(),
			// The write-instrumentation families necessarily lag one
			// commit (the sample is taken inside the body this write
			// persists); the engine families are exact at every commit.
			Telemetry: checkpoint.SampleCounters(reg),
		}
		snap.SortEntries()
		if err := ckm.Write(ck.Path, snap); err != nil {
			return err
		}
		if cfg.Meter != nil {
			cfg.Meter.Checkpointed()
		}
		return nil
	}

	committed, unsnapped := 0, 0
	for ui := range units {
		if doneSet[uint32(ui)] {
			continue
		}
		if s.stopped() {
			return nil, errs.Interrupted("search: interrupted between units")
		}
		prev := grab(w)
		prevTel := w.telTally()
		unitStart := time.Now()
		if err := w.runTask(task(units[ui])); err != nil {
			if errors.Is(err, errStopped) {
				// Mid-unit abort: the unit did not commit; the last snapshot
				// (which never saw its partial entries) stands.
				return nil, errs.Interrupted("search: interrupted mid-unit")
			}
			return nil, err
		}
		counters.Add(delta(prev, w))
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
			return nil, errs.Interrupted(fmt.Sprintf("search: stopped after %d units as requested", committed))
		}
	}
	if unsnapped > 0 {
		if err := writeSnap(); err != nil {
			return nil, err
		}
	}

	// The spine pass: compute the tree above the shard depth from the
	// root, adopting the memoized units. Its counters complete the totals
	// but are never persisted — a run killed mid-spine resumes from the
	// all-units-done snapshot and just redoes this (cheap) pass.
	prev := grab(w)
	prevTel := w.telTally()
	if err := w.runTask(task{}); err != nil {
		if errors.Is(err, errStopped) {
			return nil, errs.Interrupted("search: interrupted during spine pass")
		}
		return nil, err
	}
	counters.Add(delta(prev, w))
	em.addTally(0, prevTel, w.telTally(), w.e.UndoMax(), w.maxDepth)
	if !s.rootSet {
		return nil, errors.New("search: internal: spine pass never answered the root")
	}

	res := &Result{
		Mode:            ModeExhaustive,
		Model:           cfg.Model.Name(),
		WorstCost:       s.rootCost,
		Witness:         s.rootTail,
		Workers:         cfg.Workers,
		Paths:           counters.Paths,
		Truncated:       counters.Truncated,
		Pruned:          counters.Pruned,
		StepsSlept:      counters.StepsSlept,
		SymmetryMerges:  counters.SymmetryMerges,
		MaxDepthReached: counters.MaxDepthReached,
	}
	if w.red != nil {
		res.Reduced = true
		witness, err := w.reconstructWitness(s.rootCost)
		if err != nil {
			return nil, err
		}
		res.Witness = witness
	}
	if err := auditResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

func equalUnits(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
