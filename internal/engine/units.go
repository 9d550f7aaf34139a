package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/telemetry"
	"repro/internal/worksteal"
)

// Checkpointed runs. A durable run is partitioned into units — the
// subtrees rooted at the internal tree nodes of a fixed prefix depth —
// that commit one at a time, with a snapshot of the table and the
// committed counters between commits. Resume is byte-identical to an
// uninterrupted run because every Result counter counts tree edges into
// the set of distinct (state, budget) pairs reachable from the root — a
// function of the configuration — and the persisted table keeps each
// pair claimed exactly once across the unit sequence, kills included.
//
// Telemetry here is committed-unit-granular: the engine runs without a
// live registry, and a unit's counters reach the registry only when the
// unit commits. A mid-unit abort therefore leaves the registry exactly
// at the last commit, matching the counter block the snapshot persists
// and a resumed run preloads.

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

// ClampShardDepth resolves a requested unit depth: default 3, never at
// or past the depth bound (the last level belongs to the pass above the
// units, so units are always internal nodes).
func ClampShardDepth(d, maxDepth int) int {
	if d <= 0 {
		d = 3
	}
	if d > maxDepth-1 {
		d = maxDepth - 1
	}
	return max(d, 0)
}

// WriteScripts renders the per-process call scripts of a snapshot
// fingerprint: "p<pid>:<kind>,<kind>,...;" per scripted process, in PID
// order.
func WriteScripts(b *strings.Builder, n int, scripts map[memsim.PID][]memsim.CallKind) {
	for pid := 0; pid < n; pid++ {
		script, ok := scripts[memsim.PID(pid)]
		if !ok {
			continue
		}
		fmt.Fprintf(b, "p%d:", pid)
		for _, k := range script {
			fmt.Fprintf(b, "%d,", k)
		}
		b.WriteByte(';')
	}
}

// Durable is an engine's side of a checkpointed run: its snapshot
// identity, its table, its single worker and three hooks.
type Durable struct {
	Kind        checkpoint.Kind
	Fingerprint string
	ShardDepth  int
	Telemetry   *telemetry.Registry
	Worker      *Worker // counts what commits; its pool carries the stop signal

	// Export and Preload move the table to and from a snapshot; both nil
	// when the run keeps no table.
	Export  func() []checkpoint.Entry
	Preload func([]checkpoint.Entry)

	// Plan returns the unit list. A fresh run passes nil; a resumed run
	// passes its snapshot, whose unit list the engine adopts or checks.
	Plan func(resumed *checkpoint.Snapshot) ([][]int, error)
	// PersistPlan snapshots right after a fresh plan: the plan counted
	// work that only the snapshot records (the explorer's shallow pass).
	PersistPlan bool
	// Unit runs one unit, given its prefix.
	Unit func(prefix worksteal.Task) error
	// Finish, when non-nil, runs after the last unit commits; its
	// counters complete the totals but are never persisted (a run killed
	// during it resumes from the all-units-done snapshot).
	Finish func() error
}

// RunUnits drives a checkpointed run and returns the counters committed
// so far — every counter, Finish's included, when err is nil. An
// interruption (ck.Interrupt, ck.StopAfter, or a pool stopped by its
// engine) returns an error classified as errs.ClassInterrupt;
// everything already committed is on disk.
func RunUnits(ck Checkpoint, d Durable) (counters checkpoint.Counters, err error) {
	w := d.Worker
	name := w.Pool.name
	reg := d.Telemetry
	em := newEngineMetrics(reg, d.Kind)
	worksteal.NewMetrics(reg) // frontier families at zero: the run has one worker
	ckm := checkpoint.NewMetrics(reg)
	unitNs := reg.Histogram("repro_unit_ns", 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)
	interrupted := func(err error, when string) error {
		if errors.Is(err, ErrStopped) {
			return errs.Interrupted(name + ": interrupted " + when)
		}
		return err
	}
	if ck.Interrupt != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ck.Interrupt:
				w.Pool.Stop()
			case <-finished:
			}
		}()
	}

	var units [][]int
	var done []uint32
	doneSet := map[uint32]bool{}
	if ck.Resume {
		snap, err := checkpoint.Read(ck.Path)
		if err != nil {
			return counters, err
		}
		if snap.Kind != d.Kind {
			return counters, errs.Failuref(errs.CodeConflict, "%s: %s is a %s snapshot", name, ck.Path, snap.Kind)
		}
		if snap.Fingerprint != d.Fingerprint {
			return counters, errs.Failuref(errs.CodeConflict,
				"%s: snapshot %s was written by a different configuration (%s, want %s)",
				name, ck.Path, snap.Fingerprint, d.Fingerprint)
		}
		if units, err = d.Plan(snap); err != nil {
			return counters, err
		}
		counters, done, doneSet = snap.Counters, snap.Done, snap.DoneSet()
		if d.Preload != nil {
			d.Preload(snap.Entries)
		}
		// Continue the telemetry counters from the killed run's last
		// commit, so totals stay monotone across resumes. A pre-v4
		// snapshot has no telemetry block; seed the engine families from
		// the deterministic counters instead.
		if len(snap.Telemetry) > 0 {
			checkpoint.PreloadCounters(reg, snap.Telemetry)
		} else {
			em.seed(snap.Counters)
		}
	} else {
		if units, err = d.Plan(nil); err != nil {
			return counters, interrupted(err, "while planning units (nothing persisted)")
		}
		w.commit(&counters, em)
	}

	write := func() error {
		snap := &checkpoint.Snapshot{
			Kind:        d.Kind,
			Fingerprint: d.Fingerprint,
			ShardDepth:  d.ShardDepth,
			Units:       units,
			Done:        done,
			Counters:    counters,
		}
		if d.Export != nil {
			snap.Entries = d.Export()
		}
		// The write-instrumentation families necessarily lag one commit
		// (the sample is taken inside the body this write persists); the
		// engine families are exact at every commit.
		snap.Telemetry = checkpoint.SampleCounters(reg)
		snap.SortEntries()
		if err := ckm.Write(ck.Path, snap); err != nil {
			return err
		}
		if w.Pool.meter != nil {
			w.Pool.meter.Checkpointed()
		}
		return nil
	}
	if !ck.Resume && d.PersistPlan {
		if err := write(); err != nil {
			return counters, err
		}
	}

	every := max(ck.Every, 1)
	committed, unsnapped := 0, 0
	for ui := range units {
		if doneSet[uint32(ui)] {
			continue
		}
		if w.Pool.Stopped() {
			return counters, errs.Interrupted(name + ": interrupted between units")
		}
		start := time.Now()
		if err := d.Unit(units[ui]); err != nil {
			// The unit did not commit; the last snapshot, which never saw
			// its partial table entries, stands.
			return counters, interrupted(err, "mid-unit")
		}
		w.commit(&counters, em)
		unitNs.Observe(0, time.Since(start).Nanoseconds())
		done = append(done, uint32(ui))
		committed++
		if unsnapped++; unsnapped >= every {
			if err := write(); err != nil {
				return counters, err
			}
			unsnapped = 0
		}
		if ck.StopAfter > 0 && committed >= ck.StopAfter {
			if unsnapped > 0 {
				if err := write(); err != nil {
					return counters, err
				}
			}
			return counters, errs.Interrupted(fmt.Sprintf("%s: stopped after %d units as requested", name, committed))
		}
	}
	if unsnapped > 0 {
		if err := write(); err != nil {
			return counters, err
		}
	}
	if d.Finish != nil {
		if err := d.Finish(); err != nil {
			return counters, interrupted(err, "after the last unit")
		}
		w.commit(&counters, em)
	}
	return counters, nil
}

// seed adds a pre-v4 snapshot's deterministic counters onto their
// telemetry families, the best cumulative record such a snapshot
// carries. No-op on nil.
func (m *engineMetrics) seed(c checkpoint.Counters) {
	if m == nil {
		return
	}
	m.paths.Add(0, int64(c.Paths))
	m.truncated.Add(0, int64(c.Truncated))
	m.deduped.Add(0, int64(c.Deduped))
	m.pruned.Add(0, int64(c.Pruned))
	m.sleepPrunes.Add(0, int64(c.StepsSlept))
	m.symMerges.Add(0, int64(c.SymmetryMerges))
}
