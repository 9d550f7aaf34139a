package lowerbound

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/memsim"
	"repro/internal/trace"
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
// Definition 6.3. Everything it reads is dense PID- or address-indexed
// storage, reused across rounds, and across runs through builderPool.
type builder struct {
	cfg  Config
	n    int
	exec *memsim.Execution
	// led is exec's ledger: the running quantities the construction reads
	// from the history, which exec retains only under VerifyErasures.
	led ledger
	// before is, under VerifyErasures, the trace a replay is checked
	// against.
	before []memsim.Event
	// erasing marks, by PID, the victims of the erasure in progress.
	erasing []bool
	// active lists the active processes in ascending PID order; erase
	// and rollForward remove processes from it in place. isActive,
	// finished and stable are the process sets by PID.
	active    []memsim.PID
	isActive  []bool
	finished  []bool
	nfinished int
	stable    []bool
	// zeroRuns counts consecutive completed zero-RMR Poll calls per
	// process, for the heuristic stability window.
	zeroRuns []int32
	// The round's pending remote accesses: isPending marks, by PID, the
	// processes parked at one and not yet applied or erased (npend of
	// them), and pendAcc holds the access. Pending processes are active,
	// so walking the active list visits them in ascending PID order.
	pendAcc   []memsim.Access
	isPending []bool
	npend     int
	// claimed and nwriters are applyWrites' per-address scratch: the
	// addresses that already kept one RMW (or plain writer), and the
	// plain-writer count per address. Both are zero between uses.
	claimed  []bool
	nwriters []int32
	graph    conflictGraph
	// victims, writing and targets are scratch PID lists.
	victims []memsim.PID
	writing []memsim.PID
	targets []memsim.PID
	// module holds advance's module snapshots: the one taken when a Poll
	// starts, followed by the one taken when it ends.
	module   []memsim.Value
	rounds   []RoundReport
	lastCase string
	// violation carries the first Specification 4.1 breach encountered.
	violation string
	// rel and fin are the certificate's regularity audit: the relations
	// of its trace and the finished set it is checked against.
	rel trace.Relations
	fin []bool
}

// builderPool recycles builders, with all their storage, across runs.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

const stabilityWindow = 6

// newBuilder validates cfg, fills its defaults and deploys the live
// execution, on a builder drawn from builderPool.
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
	exec, err := cfg.Algorithm.Deploy(cfg.N)
	if err != nil {
		return nil, err
	}
	exec.RetainEvents(cfg.VerifyErasures)
	n, size := cfg.N, exec.Machine().Size()
	b := builderPool.Get().(*builder)
	b.cfg, b.n, b.exec = cfg, n, exec
	b.led.attach(exec)
	b.before = b.before[:0]
	b.erasing = zeroed(b.erasing, n)
	b.active = b.active[:0]
	b.isActive = zeroed(b.isActive, n)
	b.finished = zeroed(b.finished, n)
	b.nfinished = 0
	b.stable = zeroed(b.stable, n)
	b.zeroRuns = zeroed(b.zeroRuns, n)
	b.pendAcc = zeroed(b.pendAcc, n)
	b.isPending = zeroed(b.isPending, n)
	b.npend = 0
	b.claimed = zeroed(b.claimed, size)
	b.nwriters = zeroed(b.nwriters, size)
	b.graph.init(n)
	b.victims, b.writing, b.targets = b.victims[:0], b.writing[:0], b.targets[:0]
	b.rounds = b.rounds[:0]
	b.lastCase, b.violation = "", ""
	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		if cfg.Algorithm.Variant.FixedSignaler && pid == memsim.PID(n-1) {
			continue // reserve the designated signaler
		}
		b.active = append(b.active, pid)
		b.isActive[pid] = true
	}
	return b, nil
}

// zeroed returns s resliced to length n with every element zero, growing
// it only when its capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// release returns the execution's storage, and then the builder's, for
// reuse. Nothing the certificate holds is either's: its trace, owners
// and rounds come from the certificate storage pool (see
// Certificate.Release).
func (b *builder) release() {
	b.exec.Release()
	b.exec, b.led.owner = nil, nil
	b.cfg = Config{} // holds the algorithm and the log writer
	builderPool.Put(b)
}

// logging reports whether the construction narrative goes anywhere;
// callers test it before logf so that nothing is formatted otherwise.
func (b *builder) logging() bool { return b.cfg.Log != nil }

// logf writes one line of the narrative to Config.Log.
func (b *builder) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.Log, format+"\n", args...)
}

// activeSorted returns the active set in ascending PID order. The slice
// is the builder's own list: erasures rewrite it in place.
func (b *builder) activeSorted() []memsim.PID { return b.active }

// isRemote applies the DSM RMR rule to a pending access.
func (b *builder) isRemote(pid memsim.PID, a memsim.Addr) bool {
	return b.exec.Machine().Owner(a) != pid
}

// erase removes every process in victims from the history (Lemma 6.7): it
// rewinds the live execution and its ledger to the deployment state and
// re-applies the schedule without the victims' actions. When
// VerifyErasures is set, it asserts that each survivor's access sequence
// is unchanged — the runtime check that nobody had seen the victims.
// victims may alias activeSorted's list.
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
		b.isActive[v] = false
		b.stable[v] = false
		b.zeroRuns[v] = 0
	}
	defer clear(b.erasing)
	// victims is not read again: it may alias the list compacted here.
	kept := b.active[:0]
	for _, p := range b.active {
		if !b.erasing[p] {
			kept = append(kept, p)
		}
	}
	b.active = kept
	if b.cfg.VerifyErasures {
		b.before = append(b.before[:0], b.exec.Events()...)
	}
	if err := b.replay(); err != nil {
		return fmt.Errorf("erase replay: %w", err)
	}
	if b.cfg.VerifyErasures {
		if p, changed := b.survivorChanged(b.before, b.exec.Events()); changed {
			var erased []memsim.PID
			for v, e := range b.erasing {
				if e {
					erased = append(erased, memsim.PID(v))
				}
			}
			return fmt.Errorf("lowerbound: erasing %v changed survivor p%d's trace (algorithm saw an erased process)",
				erased, p)
		}
	}
	return nil
}

// replay rewinds the live execution and its ledger to the deployment
// state and re-applies the schedule without the actions of the processes
// being erased. The schedule is filtered in place: Reset empties the
// execution's action log but keeps its storage, and the k-th re-applied
// action is logged at position k, never after the position it was read
// from, so the loop reads no entry that the replay has overwritten.
func (b *builder) replay() error {
	sched := b.exec.Actions()
	b.exec.Reset()
	b.led.reset()
	for i, a := range sched {
		if b.erasing[a.PID] {
			continue
		}
		if err := b.exec.Apply(a); err != nil {
			return fmt.Errorf("replay action %d (%v p%d): %w", i, a.Kind, a.PID, err)
		}
	}
	return nil
}

// certificateTrace replays the live schedule onto the rewound execution
// and returns the trace the replay emits, which the ledger collects into
// buf: every applied action emits exactly one event, so the trace fills
// buf, grown first if it is short, to exactly the log's length, and
// keeps its capacity. Under VerifyErasures the replay must reproduce the
// live trace exactly.
func (b *builder) certificateTrace(buf []memsim.Event) ([]memsim.Event, error) {
	if b.cfg.VerifyErasures {
		b.before = append(b.before[:0], b.exec.Events()...)
	}
	k := len(b.exec.Actions())
	b.led.trace = reserve(buf, k)
	b.led.record = true
	err := b.replay()
	events := b.led.trace
	b.led.trace, b.led.record = nil, false
	if err != nil {
		return nil, err
	}
	if len(events) != k {
		return nil, fmt.Errorf("lowerbound: %d actions replayed into %d events", k, len(events))
	}
	if b.cfg.VerifyErasures && !slices.Equal(events, b.before) {
		return nil, errors.New("lowerbound: the replayed certificate trace differs from the live trace")
	}
	return events, nil
}

// reserve returns buf emptied, with room for n elements: buf itself when
// its capacity is enough, a new slice otherwise. It is never nil.
func reserve[T any](buf []T, n int) []T {
	if buf == nil || cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
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

// appendTargets appends to dst the active processes p's pending access
// would see or touch (for regularity condition 1 and 2 edges).
func (b *builder) appendTargets(dst []memsim.PID, p memsim.PID, acc memsim.Access) []memsim.PID {
	m := b.exec.Machine()
	if q := m.Owner(acc.Addr); q != memsim.NoOwner && q != p && b.isActive[q] {
		dst = append(dst, q)
	}
	if classify(acc.Op) != classWrite {
		if w := m.LastWriter(acc.Addr); w != memsim.NoOwner && w != p && b.isActive[w] {
			dst = append(dst, w)
		}
	}
	return dst
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
