package lowerbound

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/memsim"
)

// opClass partitions operations for the Part 1 write handling.
type opClass uint8

const (
	classRead  opClass = iota + 1 // read, LL: no overwrite
	classWrite                    // plain write: overwrites, reveals nothing
	classRMW                      // CAS, SC, FAA, FAS, TAS: may overwrite and reveals the old value
)

func classify(op memsim.Op) opClass {
	switch op {
	case memsim.OpRead, memsim.OpLL:
		return classRead
	case memsim.OpWrite:
		return classWrite
	default:
		return classRMW
	}
}

// advStatus is the outcome of advancing one waiter.
type advStatus uint8

const (
	advUnstable advStatus = iota + 1 // parked at a pending remote access
	advStable                        // certified stable (Definition 6.8)
	advSafety                        // Poll returned true before any Signal
	advStuck                         // exceeded the solo budget on local steps
)

// builder is the adversary's working state: a replayable action history, a
// live execution positioned at its end, and the Par/Fin/Act bookkeeping of
// Definition 6.3.
type builder struct {
	cfg  Config
	n    int
	exec *memsim.Execution
	// led is exec's ledger: the running quantities the construction reads
	// from the history, which exec retains only under VerifyErasures.
	led *ledger
	// spare is a second deployment that erase rewinds and replays onto;
	// the two executions, and their ledgers, then trade places. Nil until
	// the first erasure; certificate replays the final history onto it.
	spare    *memsim.Execution
	spareLed *ledger
	// erasing marks, by PID, the victims of the erasure in progress.
	erasing  []bool
	active   map[memsim.PID]bool
	finished map[memsim.PID]bool
	stable   map[memsim.PID]bool
	// zeroRuns counts consecutive completed zero-RMR Poll calls per
	// process, for the heuristic stability window.
	zeroRuns map[memsim.PID]int
	// module holds advance's module snapshots: the one taken when a Poll
	// starts, followed by the one taken when it ends.
	module   []memsim.Value
	rounds   []RoundReport
	lastCase string
	// violation carries the first Specification 4.1 breach encountered.
	violation string
}

const stabilityWindow = 6

// newBuilder validates cfg, fills its defaults and deploys the live
// execution.
func newBuilder(cfg Config) (*builder, error) {
	if cfg.Algorithm.New == nil {
		return nil, errors.New("lowerbound: config requires an algorithm")
	}
	if cfg.N < 4 {
		return nil, fmt.Errorf("lowerbound: need at least 4 processes, got %d", cfg.N)
	}
	if cfg.C < 1 {
		cfg.C = 1
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = cfg.C
	}
	if cfg.SoloBudget == 0 {
		cfg.SoloBudget = 64*cfg.N + 256
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	exec, err := cfg.Algorithm.Deploy(cfg.N)
	if err != nil {
		return nil, err
	}
	exec.RetainEvents(cfg.VerifyErasures)
	b := &builder{
		cfg:      cfg,
		n:        cfg.N,
		exec:     exec,
		led:      attachLedger(exec),
		erasing:  make([]bool, cfg.N),
		active:   make(map[memsim.PID]bool, cfg.N),
		finished: make(map[memsim.PID]bool),
		stable:   make(map[memsim.PID]bool),
		zeroRuns: make(map[memsim.PID]int),
	}
	for i := 0; i < cfg.N; i++ {
		pid := memsim.PID(i)
		if cfg.Algorithm.Variant.FixedSignaler && pid == memsim.PID(cfg.N-1) {
			continue // reserve the designated signaler
		}
		b.active[pid] = true
	}
	return b, nil
}

// release returns both executions' storage for reuse; the certificate
// keeps what it took from them (the trace and a copy of the owners).
func (b *builder) release() {
	b.exec.Release()
	if b.spare != nil {
		b.spare.Release()
	}
	b.exec, b.spare = nil, nil
}

func (b *builder) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.Log, format+"\n", args...)
}

// activeSorted returns the active set in ascending PID order.
func (b *builder) activeSorted() []memsim.PID {
	out := make([]memsim.PID, 0, len(b.active))
	for p := range b.active {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// isRemote applies the DSM RMR rule to a pending access.
func (b *builder) isRemote(pid memsim.PID, a memsim.Addr) bool {
	return b.exec.Machine().Owner(a) != pid
}

// erase removes every process in victims from the history (Lemma 6.7): it
// rewinds the spare execution to its deployment state, re-applies the
// live schedule without the victims' actions, and makes the result the
// live execution. When VerifyErasures is set, it asserts that each
// survivor's access sequence is unchanged — the runtime check that nobody
// had seen the victims.
func (b *builder) erase(victims ...memsim.PID) error {
	if len(victims) == 0 {
		return nil
	}
	for _, v := range victims {
		if b.finished[v] {
			return fmt.Errorf("lowerbound: cannot erase finished process %d", v)
		}
	}
	for _, v := range victims {
		b.erasing[v] = true
		delete(b.active, v)
		delete(b.stable, v)
		delete(b.zeroRuns, v)
	}
	defer func() {
		for _, v := range victims {
			b.erasing[v] = false
		}
	}()
	if err := b.replay(b.cfg.VerifyErasures); err != nil {
		return fmt.Errorf("erase replay: %w", err)
	}
	if b.cfg.VerifyErasures {
		if p, changed := b.survivorChanged(b.exec.Events(), b.spare.Events()); changed {
			return fmt.Errorf("lowerbound: erasing %v changed survivor p%d's trace (algorithm saw an erased process)",
				append([]memsim.PID(nil), victims...), p)
		}
	}
	b.exec, b.spare = b.spare, b.exec
	b.led, b.spareLed = b.spareLed, b.led
	return nil
}

// replay rewinds the spare execution and its ledger to the deployment
// state (deploying the spare on first use) and re-applies the live
// schedule without the actions of the processes being erased. The spare
// retains the replayed trace when retain is set.
func (b *builder) replay(retain bool) error {
	if b.spare == nil {
		spare, err := b.cfg.Algorithm.Deploy(b.n)
		if err != nil {
			return err
		}
		b.spare, b.spareLed = spare, attachLedger(spare)
	} else {
		b.spare.Reset()
		b.spareLed.reset()
	}
	b.spare.RetainEvents(retain)
	for i, a := range b.exec.Actions() {
		if b.erasing[a.PID] {
			continue
		}
		if err := b.spare.Apply(a); err != nil {
			return fmt.Errorf("replay action %d (%v p%d): %w", i, a.Kind, a.PID, err)
		}
	}
	return nil
}

// survivorChanged compares the history before an erasure with its replay
// and reports the first survivor whose accesses (ops, addresses, results,
// call numbers) differ. Every action emits exactly one event, so the
// replay's events pair up in order with the old events of the survivors;
// only sequence numbers legitimately shift.
func (b *builder) survivorChanged(before, after []memsim.Event) (memsim.PID, bool) {
	j := 0
	for _, old := range before {
		if b.erasing[old.PID] {
			continue
		}
		if j == len(after) {
			return old.PID, true
		}
		ev := after[j]
		j++
		if old.Kind != ev.Kind || old.PID != ev.PID {
			return old.PID, true
		}
		if old.Kind == memsim.EvAccess &&
			(old.Acc != ev.Acc || old.Res != ev.Res || old.CallSeq != ev.CallSeq) {
			return old.PID, true
		}
	}
	if j < len(after) {
		return after[j].PID, true
	}
	return 0, false
}

// advance runs waiter p solo until it is parked at a pending remote access,
// certified stable, or found to violate the specification. Local steps are
// applied immediately (in the DSM model they commute with every other
// process's steps).
//
// Stability is certified two ways: provably, when a completed Poll call
// performed no remote access and left p's module exactly as it found it (a
// local fixpoint, so every future solo call repeats it — Definition 6.8);
// and heuristically, after stabilityWindow consecutive zero-RMR calls.
func (b *builder) advance(p memsim.PID) (advStatus, error) {
	atStart := -1 // length of the start snapshot in b.module; -1 before the first start
	for steps := 0; steps <= b.cfg.SoloBudget; steps++ {
		if b.exec.Idle(p) {
			b.module = b.exec.Machine().AppendModule(b.module[:0], p)
			atStart = len(b.module)
			if err := b.exec.Start(p, memsim.CallPoll); err != nil {
				return 0, err
			}
		}
		if ret, done := b.exec.CallEnded(p); done {
			if _, err := b.exec.Finish(p); err != nil {
				return 0, err
			}
			if ret != 0 {
				b.violation = fmt.Sprintf("Poll by p%d returned true although no Signal call has begun", p)
				return advSafety, nil
			}
			if b.led.callRemote[p] {
				b.zeroRuns[p] = 0
				continue
			}
			if atStart >= 0 {
				b.module = b.exec.Machine().AppendModule(b.module[:atStart], p)
				if slices.Equal(b.module[:atStart], b.module[atStart:]) {
					b.stable[p] = true // local fixpoint: provably stable
					return advStable, nil
				}
			}
			b.zeroRuns[p]++
			if b.zeroRuns[p] >= stabilityWindow {
				b.stable[p] = true
				return advStable, nil
			}
			continue
		}
		acc, ok := b.exec.Pending(p)
		if !ok {
			continue
		}
		if b.isRemote(p, acc.Addr) {
			return advUnstable, nil
		}
		if _, err := b.exec.Step(p); err != nil {
			return 0, err
		}
	}
	return advStuck, nil
}

// pendingTargets returns the active processes p's pending access would see
// or touch (for regularity condition 1 and 2 edges).
func (b *builder) pendingTargets(p memsim.PID, acc memsim.Access) []memsim.PID {
	var out []memsim.PID
	m := b.exec.Machine()
	if q := m.Owner(acc.Addr); q != memsim.NoOwner && q != p && b.active[q] {
		out = append(out, q)
	}
	if classify(acc.Op) != classWrite {
		if w := m.LastWriter(acc.Addr); w != memsim.NoOwner && w != p && b.active[w] {
			out = append(out, w)
		}
	}
	return out
}

// isqrt returns floor(sqrt(x)).
func isqrt(x int) int {
	if x < 0 {
		return 0
	}
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}
