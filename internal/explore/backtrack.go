package explore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/memsim"
)

// The backtracking engine keeps one live execution per worker for the
// whole exploration. Process state is held in resumable frames (plain
// copyable structs in a memsim.FrameSet, copied into each tree node's
// snapshot and back) and shared memory is wound back through the
// machine's undo log, so moving to a sibling schedule retracts one
// decision instead of replaying the prefix. With dedup enabled, a
// canonical hash of (machine words, LL reservations, frames, pending
// calls, script progress) claims each (state, remaining depth budget)
// pair exactly once across all workers; later arrivals prune their
// subtree.
//
// The engine emits exactly the events the Controller would: its settle
// order, call bookkeeping and sequence numbering replicate
// memsim.Controller and the replay engine's drive loop, which the
// engine-equivalence tests pin down (same Paths, Truncated and Check
// outcomes as EngineReplay when dedup is off).

// backtrackable reports whether every scripted (process, call) pair of cfg
// resolves to a resumable program, i.e. whether the backtracking engine can
// run the workload. Probing mints frames without executing them, so it has
// no side effects on a fresh deployment.
func backtrackable(cfg Config) bool {
	e, err := memsim.NewExecution(cfg.Factory, cfg.N)
	if err != nil {
		return false // let the replay engine surface the deployment error
	}
	defer e.Close()
	ri, ok := e.Instance().(memsim.ResumableInstance)
	if !ok {
		return false
	}
	for pid, script := range cfg.Scripts {
		probed := map[memsim.CallKind]bool{}
		for _, kind := range script {
			if probed[kind] {
				continue
			}
			probed[kind] = true
			if _, err := ri.ResumableProgram(pid, kind); err != nil {
				return false
			}
		}
	}
	return true
}

// procPhase mirrors the controller's view of one process.
type bPhase uint8

const (
	bIdle bPhase = iota
	bPending
	bDone
)

// bengine is the mutable exploration state: one machine, one frame per
// process, the trace so far, and the machine undo log.
type bengine struct {
	mach     *memsim.Machine
	inst     memsim.ResumableInstance
	n        int
	scripts  [][]memsim.CallKind // dense per-pid view of Config.Scripts; nil = unscripted
	tmpl     *memsim.FrameTemplates
	frames   memsim.FrameSet
	phase    []bPhase
	pending  []memsim.Access
	rets     []memsim.Value
	calls    []int
	kinds    []memsim.CallKind
	progress []int
	events   []memsim.Event
	seq      int
	undos    []memsim.Undo
	desc     []string // applied choices, for failure reports
	path     []int    // applied choice indices, for task prefixes

	// Specification-monitor bits: the prefix facts Specification 4.1's
	// checker conditions on, folded into the dedup key so that two states
	// merge only when their spec-relevant pasts agree (a poll that began
	// after the first completed Signal must never merge with one that
	// began before it — "poll-false" distinguishes them).
	sigStarted  bool   // some Signal call has begun
	sigEnded    bool   // some Signal call has completed
	afterSigEnd []bool // per process: open call began after the first Signal completed

	// Fault dimension: the policy in force and the number of faults the
	// current schedule prefix has injected. faultsUsed joins the state
	// key whenever the policy is enabled — a state reached with budget
	// left must never merge with the same state reached without.
	fp         memsim.FaultPolicy
	faultsUsed int

	// Hot-path scratch, all engine-owned and reused node to node: the
	// state-key build buffer, per-(pid, kind) precomputed choice
	// descriptions, per-depth settle buffers, and the free list of
	// released node snapshots. See "hot-path memory discipline" in
	// docs/ARCHITECTURE.md.
	keyBuf     []byte
	descs      [][4]string
	choiceBufs [][]choice
	markPool   []*mark

	// Telemetry-only statistics of the scratch structures above: pool
	// reuse and the undo-log high-water mark, sampled at save(). Plain
	// ints on the engine; flushed with the worker tallies, never read
	// by the exploration itself.
	poolHits   int
	poolMisses int
	undoMax    int
}

func newBengine(cfg Config) (*bengine, error) {
	m := memsim.NewMachine(cfg.N)
	inst, err := cfg.Factory(m, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("deploy instance: %w", err)
	}
	ri, ok := inst.(memsim.ResumableInstance)
	if !ok {
		return nil, fmt.Errorf("explore: %T has no resumable tier; use EngineReplay", inst)
	}
	descs := make([][4]string, cfg.N)
	for pid := range descs {
		descs[pid] = [4]string{
			fmt.Sprintf("p%d", pid), fmt.Sprintf("p%d+", pid),
			fmt.Sprintf("p%d!", pid), fmt.Sprintf("p%d?", pid),
		}
	}
	return &bengine{
		mach:     m,
		inst:     ri,
		n:        cfg.N,
		scripts:  denseScripts(cfg.N, cfg.Scripts),
		tmpl:     memsim.NewFrameTemplates(ri, cfg.N),
		frames:   memsim.NewFrameSet(cfg.N),
		phase:    make([]bPhase, cfg.N),
		pending:  make([]memsim.Access, cfg.N),
		rets:     make([]memsim.Value, cfg.N),
		calls:    make([]int, cfg.N),
		kinds:    make([]memsim.CallKind, cfg.N),
		progress: make([]int, cfg.N),

		afterSigEnd: make([]bool, cfg.N),

		fp: cfg.Faults,

		descs: descs,
	}, nil
}

// denseScripts flattens the per-pid script map into a pid-indexed slice so
// the settle/apply/stateKey hot loops index instead of hashing. A nil row
// means the pid is unscripted; a present-but-empty script stays non-nil
// (the pid is scripted, with nothing to run).
func denseScripts(n int, scripts map[memsim.PID][]memsim.CallKind) [][]memsim.CallKind {
	dense := make([][]memsim.CallKind, n)
	for p, s := range scripts {
		if int(p) < 0 || int(p) >= n {
			continue
		}
		if s == nil {
			s = []memsim.CallKind{}
		}
		dense[p] = s
	}
	return dense
}

func (e *bengine) emit(ev memsim.Event) {
	ev.Seq = e.seq
	e.seq++
	e.events = append(e.events, ev)
}

// advance feeds prev into pid's frame and records its next scheduling point.
func (e *bengine) advance(pid memsim.PID, prev memsim.Result) {
	f := e.frames.Frame(pid)
	if acc, ok := f.Next(prev); ok {
		e.pending[pid] = acc
		e.phase[pid] = bPending
	} else {
		e.rets[pid] = f.Return()
		e.phase[pid] = bDone
	}
}

// settle collects completed calls (eagerly, so call-end events get the
// earliest consistent position, exactly like the replay engine) and returns
// the open scheduling choices in deterministic order.
func (e *bengine) settle() []choice {
	return e.settleInto(nil)
}

// settleAt is settle writing into the engine's depth-indexed choice
// buffer: the DFS settles each node exactly once and recursion uses deeper
// buffers, so one buffer per depth makes the settle loop allocation-free
// after warm-up. The returned slice is valid until the same depth settles
// again.
func (e *bengine) settleAt(depth int) []choice {
	for len(e.choiceBufs) <= depth {
		e.choiceBufs = append(e.choiceBufs, make([]choice, 0, e.n))
	}
	choices := e.settleInto(e.choiceBufs[depth][:0])
	e.choiceBufs[depth] = choices
	return choices
}

func (e *bengine) settleInto(choices []choice) []choice {
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		script := e.scripts[p]
		if script == nil {
			continue
		}
		if e.phase[p] == bDone {
			kind := e.kinds[p]
			e.emit(memsim.Event{
				Kind: memsim.EvCallEnd, PID: p, CallSeq: e.calls[p] - 1,
				Proc: kind.String(), Ret: e.rets[p],
			})
			e.phase[p] = bIdle
			e.frames.Drop(p)
			if kind == memsim.CallSignal {
				e.sigEnded = true
			}
			if kind == memsim.CallPoll && e.rets[p] != 0 {
				// The waiter observed the signal; the problem statement
				// says it stops polling.
				e.progress[p] = len(script)
			}
		}
		if e.phase[p] == bPending {
			choices = append(choices, choice{pid: p})
			continue
		}
		if e.phase[p] == bIdle && e.progress[p] < len(script) {
			choices = append(choices, choice{pid: p, start: true})
		}
	}
	// Fault choice points come after every regular choice, so the
	// fault-free enumeration is a prefix of the faulty one and a disabled
	// policy changes nothing. The order mirrors appendFaultChoices (the
	// replay engine's version) exactly: PID order, crash before lost CAS.
	if e.fp.Enabled() && e.faultsUsed < e.fp.Max {
		for pid := 0; pid < e.n; pid++ {
			p := memsim.PID(pid)
			if e.phase[p] != bPending {
				continue
			}
			if e.fp.Kinds.Has(memsim.FaultCrash) {
				choices = append(choices, choice{pid: p, fault: memsim.FaultCrash})
			}
			if e.fp.Kinds.Has(memsim.FaultLostCAS) && e.pending[p].Op == memsim.OpCAS &&
				e.mach.Load(e.pending[p].Addr) == e.pending[p].Arg1 {
				choices = append(choices, choice{pid: p, fault: memsim.FaultLostCAS})
			}
		}
	}
	return choices
}

// apply performs one scheduling decision: start pid's next scripted call,
// or grant its pending access (logging the machine undo). idx is c's index
// in the node's settled choice set, recorded so that any tree position can
// be re-reached from the root by index sequence alone (how parallel workers
// hand off subtrees).
func (e *bengine) apply(c choice, idx int) error {
	p := c.pid
	switch c.fault {
	case memsim.FaultCrash:
		// Mirror Controller.Crash: the in-flight call is abandoned (frame
		// dropped, call count rewound so the restart reuses its CallSeq),
		// the script position rewinds so the same call restarts, and the
		// machine applies the fault's memory effect through the undo log.
		e.undos = e.mach.CrashLogged(p, e.fp.Vol, e.undos)
		e.calls[p]--
		e.progress[p]--
		e.emit(memsim.Event{
			Kind: memsim.EvCrash, PID: p, CallSeq: e.calls[p],
			Proc: e.kinds[p].String(), Fault: memsim.FaultCrash,
		})
		e.phase[p] = bIdle
		e.frames.Drop(p)
		e.faultsUsed++
		e.desc = append(e.desc, e.descs[p][2])
		e.path = append(e.path, idx)
		return nil
	case memsim.FaultLostCAS:
		// Mirror Controller.StepLostCAS: memory applies the real CAS (the
		// event carries the true result plus the fault marker) while the
		// frame observes failure.
		acc := e.pending[p]
		res, undo := e.mach.ApplyLogged(p, acc)
		e.undos = append(e.undos, undo)
		e.emit(memsim.Event{
			Kind: memsim.EvAccess, PID: p, CallSeq: e.calls[p] - 1,
			Proc: e.kinds[p].String(), Acc: acc, Res: res, Fault: memsim.FaultLostCAS,
		})
		e.advance(p, memsim.Result{Val: acc.Arg1, OK: false})
		e.faultsUsed++
		e.desc = append(e.desc, e.descs[p][3])
		e.path = append(e.path, idx)
		return nil
	}
	if c.start {
		kind := e.scripts[p][e.progress[p]]
		if err := e.frames.Start(e.tmpl, p, kind); err != nil {
			return fmt.Errorf("explore: start %v on p%d: %w", kind, p, err)
		}
		e.progress[p]++
		e.kinds[p] = kind
		e.afterSigEnd[p] = e.sigEnded
		if kind == memsim.CallSignal {
			e.sigStarted = true
		}
		e.emit(memsim.Event{Kind: memsim.EvCallStart, PID: p, CallSeq: e.calls[p], Proc: kind.String()})
		e.calls[p]++
		e.advance(p, memsim.Result{})
	} else {
		res, undo := e.mach.ApplyLogged(p, e.pending[p])
		e.undos = append(e.undos, undo)
		e.emit(memsim.Event{
			Kind: memsim.EvAccess, PID: p, CallSeq: e.calls[p] - 1,
			Proc: e.kinds[p].String(), Acc: e.pending[p], Res: res,
		})
		e.advance(p, res)
	}
	if c.start {
		e.desc = append(e.desc, e.descs[c.pid][1])
	} else {
		e.desc = append(e.desc, e.descs[c.pid][0])
	}
	e.path = append(e.path, idx)
	return nil
}

// mark is one node's snapshot: copied frames plus the small per-process
// scheduler arrays, and the high-water marks of the append-only logs
// (events, undo records, choice descriptions). Marks come from the
// engine's free list: save pops (or allocates) one and copies the engine
// state into its arrays, release pushes it back, and the retained frame
// storage becomes the copy target of the next save of the slot — so the
// steady-state save/restore/release cycle allocates nothing.
type mark struct {
	frames   memsim.FrameSet
	phase    []bPhase
	pending  []memsim.Access
	rets     []memsim.Value
	calls    []int
	kinds    []memsim.CallKind
	progress []int
	events   int
	seq      int
	undos    int
	desc     int // truncation point of both desc and path (always equal)

	sigStarted  bool
	sigEnded    bool
	afterSigEnd []bool

	faultsUsed int
}

func newMark(n int) *mark {
	return &mark{
		frames:      memsim.NewFrameSet(n),
		phase:       make([]bPhase, n),
		pending:     make([]memsim.Access, n),
		rets:        make([]memsim.Value, n),
		calls:       make([]int, n),
		kinds:       make([]memsim.CallKind, n),
		progress:    make([]int, n),
		afterSigEnd: make([]bool, n),
	}
}

func (e *bengine) save() *mark {
	if len(e.undos) > e.undoMax {
		e.undoMax = len(e.undos)
	}
	var m *mark
	if n := len(e.markPool); n > 0 {
		e.poolHits++
		m = e.markPool[n-1]
		e.markPool = e.markPool[:n-1]
	} else {
		e.poolMisses++
		m = newMark(e.n)
	}
	copy(m.phase, e.phase)
	copy(m.pending, e.pending)
	copy(m.rets, e.rets)
	copy(m.calls, e.calls)
	copy(m.kinds, e.kinds)
	copy(m.progress, e.progress)
	m.events = len(e.events)
	m.seq = e.seq
	m.undos = len(e.undos)
	m.desc = len(e.desc)
	m.sigStarted = e.sigStarted
	m.sigEnded = e.sigEnded
	copy(m.afterSigEnd, e.afterSigEnd)
	m.faultsUsed = e.faultsUsed
	// Mark-owned frames never alias engine-owned frames, so further engine
	// steps cannot disturb the snapshot.
	m.frames.CopyFrom(&e.frames)
	return m
}

// release returns a mark to the engine's free list once no sibling will
// restore from it again. The retained frame storage is the reuse target
// of the next save.
func (e *bengine) release(m *mark) {
	e.markPool = append(e.markPool, m)
}

// restore winds the engine back to m: machine undos revert in reverse
// order, the scheduler arrays copy back, and the logs truncate. Frames are
// copied (into the engine's retained frame storage) so the mark stays
// pristine for further siblings.
func (e *bengine) restore(m *mark) {
	for i := len(e.undos) - 1; i >= m.undos; i-- {
		e.mach.Revert(e.undos[i])
	}
	e.undos = e.undos[:m.undos]
	e.frames.CopyFrom(&m.frames)
	copy(e.phase, m.phase)
	copy(e.pending, m.pending)
	copy(e.rets, m.rets)
	copy(e.calls, m.calls)
	copy(e.kinds, m.kinds)
	copy(e.progress, m.progress)
	e.events = e.events[:m.events]
	e.seq = m.seq
	e.desc = e.desc[:m.desc]
	e.path = e.path[:m.desc]
	e.sigStarted = m.sigStarted
	e.sigEnded = m.sigEnded
	copy(e.afterSigEnd, m.afterSigEnd)
	e.faultsUsed = m.faultsUsed
}

// stateKey hashes the canonical post-settle state: machine word values and
// will-succeed LL reservations (version counters and writer history do not
// affect future behavior), the specification-monitor bits (two states with
// different spec-relevant pasts must never merge), plus each scripted
// process's frame, pending access, call count and script position. Frames
// encode through memsim.AppendFrameState, so sub-frames hash by content
// rather than by (clone-dependent) heap address. The encoding is built
// into the engine's reusable scratch buffer and hashed through the
// inlined 128-bit FNV (memsim.HashKey128) — no allocation per node — and it induces
// exactly the partition of the legacy text walk (stateKeyLegacy, kept as
// the differential-test oracle): every component is self-delimiting and
// renders the same canonical facts.
func (e *bengine) stateKey() [16]byte {
	b := e.mach.AppendKeyState(e.keyBuf[:0])
	b = append(b, boolBit(e.sigStarted)|boolBit(e.sigEnded)<<1)
	if e.fp.Enabled() {
		// The remaining fault budget shapes the subtree below a state, so
		// faults-used joins the key — but only under an enabled policy,
		// keeping k=0 keys byte-identical to fault-free ones.
		b = binary.AppendUvarint(b, uint64(e.faultsUsed))
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil {
			continue
		}
		b = append(b, byte(e.phase[p]),
			boolBit(e.phase[p] != bIdle && e.afterSigEnd[p]))
		b = binary.AppendUvarint(b, uint64(e.calls[p]))
		b = binary.AppendUvarint(b, uint64(e.progress[p]))
		if e.phase[p] == bPending {
			acc := e.pending[p]
			b = append(b, byte(acc.Op))
			b = binary.AppendUvarint(b, uint64(acc.Addr))
			b = binary.AppendVarint(b, acc.Arg1)
			b = binary.AppendVarint(b, acc.Arg2)
		}
		b = memsim.AppendKeyFrameState(b, e.frames.Frame(p))
	}
	e.keyBuf = b
	return memsim.HashKey128(b)
}

func boolBit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// stateKeyLegacy is the original reflective fmt-walk state key. It is the
// oracle of the encoder-equivalence tests: the binary stateKey must merge
// exactly the states this key merges, for every algorithm.
func (e *bengine) stateKeyLegacy() [16]byte {
	h := fnv.New128a()
	for a := 0; a < e.mach.Size(); a++ {
		fmt.Fprintf(h, "w%d;", e.mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < e.n; pid++ {
		if addr, ok := e.mach.LLState(memsim.PID(pid)); ok {
			fmt.Fprintf(h, "ll%d=%d;", pid, addr)
		}
	}
	fmt.Fprintf(h, "sig%v,%v;", e.sigStarted, e.sigEnded)
	if e.fp.Enabled() {
		fmt.Fprintf(h, "faults%d;", e.faultsUsed)
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil {
			continue
		}
		fmt.Fprintf(h, "p%d:%d,%d,%d,%v;", pid, e.phase[p], e.calls[p], e.progress[p],
			e.phase[p] != bIdle && e.afterSigEnd[p])
		if e.phase[p] == bPending {
			acc := e.pending[p]
			fmt.Fprintf(h, "a%d,%d,%d,%d;", acc.Op, acc.Addr, acc.Arg1, acc.Arg2)
		}
		if f := e.frames.Frame(p); f != nil {
			io.WriteString(h, "f")
			memsim.EncodeFrameState(h, f)
			io.WriteString(h, ";")
		}
	}
	var key [16]byte
	copy(key[:], h.Sum(nil))
	return key
}

// runBacktrack lives in parallel.go: the backtracking DFS is driven by a
// worker pool (of size one and up) sharding the schedule tree over a
// work-stealing frontier.
