package search

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/memsim"
	"repro/internal/model"
)

// The exhaustive engine keeps one live execution per worker for the whole
// search, exactly like the explorer's backtracking engine: process state
// lives in resumable frames held in a memsim.FrameSet, copied into each
// tree node's snapshot and back, and shared memory rewinds through the
// machine's ApplyLogged/Revert undo log. What search adds is the cost dimension — a
// model accumulator rides along the current path, is fed every access as
// it is applied, and is forked into each node snapshot so backtracking
// rewinds the pricing state too.

// sPhase mirrors the controller's view of one process.
type sPhase uint8

const (
	sIdle sPhase = iota
	sPending
	sDone
)

// choice is one scheduling decision: apply pid's pending access, start
// pid's next scripted call, or — under an enabled FaultPolicy — inject a
// fault at pid's pending access.
type choice struct {
	pid   memsim.PID
	start bool
	fault memsim.FaultKind
}

// String renders the choice compactly: "p0" step, "p1+" call start,
// "p0!" crash, "p0?" lost CAS (the explorer's notation).
func (c choice) String() string {
	switch c.fault {
	case memsim.FaultCrash:
		return fmt.Sprintf("p%d!", c.pid)
	case memsim.FaultLostCAS:
		return fmt.Sprintf("p%d?", c.pid)
	}
	if c.start {
		return fmt.Sprintf("p%d+", c.pid)
	}
	return fmt.Sprintf("p%d", c.pid)
}

// sengine is the mutable search state: one machine, one frame per
// process, the machine undo log, and the priced path so far.
type sengine struct {
	mach     *memsim.Machine
	inst     memsim.ResumableInstance
	n        int
	scripts  [][]memsim.CallKind // dense per-pid view of Config.Scripts; nil = unscripted
	tmpl     *memsim.FrameTemplates
	frames   memsim.FrameSet
	phase    []sPhase
	pending  []memsim.Access
	rets     []memsim.Value
	kinds    []memsim.CallKind
	progress []int
	undos    []memsim.Undo
	path     []int // applied choice indices, for task prefixes

	// acc prices the current path; cost is its running RMR total (the
	// objective). Both rewind via node snapshots.
	acc  model.Accumulator
	cost int

	// Fault dimension: the policy in force and the number of faults the
	// current path has injected (part of the state key when enabled).
	fp         memsim.FaultPolicy
	faultsUsed int

	// Hot-path scratch, engine-owned and reused node to node: the
	// state-key build buffer, per-depth settle buffers, and the free list
	// of released node snapshots. See "hot-path memory discipline" in
	// docs/ARCHITECTURE.md.
	keyBuf     []byte
	choiceBufs [][]choice
	markPool   []*mark
	encBuf     bytes.Buffer // fallback render target for non-appending models

	// Telemetry-only statistics of the scratch structures above: pool
	// reuse and the undo-log high-water mark, sampled at save(). Plain
	// ints on the engine; flushed with the worker tallies, never read
	// by the search itself.
	poolHits   int
	poolMisses int
	undoMax    int
}

func newSengine(cfg Config) (*sengine, error) {
	m := memsim.NewMachine(cfg.N)
	inst, err := cfg.Factory(m, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("deploy instance: %w", err)
	}
	ri, ok := inst.(memsim.ResumableInstance)
	if !ok {
		return nil, fmt.Errorf("search: %T has no resumable tier; exhaustive search needs one (use ModeSample)", inst)
	}
	acc := cfg.Model.Begin(cfg.N, m.Owner)
	if _, ok := acc.(model.ForkableAccumulator); !ok {
		return nil, fmt.Errorf("search: %s accumulator %T cannot fork; exhaustive search needs model.ForkableAccumulator (use ModeSample)",
			cfg.Model.Name(), acc)
	}
	if _, ok := acc.(model.ModelStateEncoder); !ok {
		return nil, fmt.Errorf("search: %s accumulator %T has no canonical state encoding; exhaustive search needs model.ModelStateEncoder (use ModeSample)",
			cfg.Model.Name(), acc)
	}
	return &sengine{
		mach:     m,
		inst:     ri,
		n:        cfg.N,
		scripts:  denseScripts(cfg.N, cfg.Scripts),
		tmpl:     memsim.NewFrameTemplates(ri, cfg.N),
		frames:   memsim.NewFrameSet(cfg.N),
		phase:    make([]sPhase, cfg.N),
		pending:  make([]memsim.Access, cfg.N),
		rets:     make([]memsim.Value, cfg.N),
		kinds:    make([]memsim.CallKind, cfg.N),
		progress: make([]int, cfg.N),
		acc:      acc,
		fp:       cfg.Faults,
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

// advance feeds prev into pid's frame and records its next scheduling
// point.
func (e *sengine) advance(pid memsim.PID, prev memsim.Result) {
	f := e.frames.Frame(pid)
	if acc, ok := f.Next(prev); ok {
		e.pending[pid] = acc
		e.phase[pid] = sPending
	} else {
		e.rets[pid] = f.Return()
		e.phase[pid] = sDone
	}
}

// settle collects completed calls (eagerly, with the explorer's poll-stop
// rule) and returns the open scheduling choices in deterministic order.
func (e *sengine) settle() []choice {
	return e.settleInto(nil)
}

// settleAt is settle writing into the engine's depth-indexed choice
// buffer: the DFS settles each node exactly once and recursion uses deeper
// buffers, so one buffer per depth makes the settle loop allocation-free
// after warm-up. The returned slice is valid until the same depth settles
// again.
func (e *sengine) settleAt(depth int) []choice {
	for len(e.choiceBufs) <= depth {
		e.choiceBufs = append(e.choiceBufs, make([]choice, 0, e.n))
	}
	choices := e.settleInto(e.choiceBufs[depth][:0])
	e.choiceBufs[depth] = choices
	return choices
}

func (e *sengine) settleInto(choices []choice) []choice {
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		script := e.scripts[p]
		if script == nil {
			continue
		}
		if e.phase[p] == sDone {
			if e.kinds[p] == memsim.CallPoll && e.rets[p] != 0 {
				// The waiter observed the signal; the problem statement
				// says it stops polling.
				e.progress[p] = len(script)
			}
			e.phase[p] = sIdle
			e.frames.Drop(p)
		}
		if e.phase[p] == sPending {
			choices = append(choices, choice{pid: p})
			continue
		}
		if e.phase[p] == sIdle && e.progress[p] < len(script) {
			choices = append(choices, choice{pid: p, start: true})
		}
	}
	// Fault choice points come after every regular choice, mirroring the
	// explorer's enumeration exactly: PID order, crash before lost CAS.
	// With the policy disabled (k=0) this appends nothing.
	if e.fp.Enabled() && e.faultsUsed < e.fp.Max {
		for pid := 0; pid < e.n; pid++ {
			p := memsim.PID(pid)
			if e.phase[p] != sPending {
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

// apply performs one scheduling decision and prices it: starting a call
// costs nothing; an applied access is fed to the accumulator and its RMR
// verdict added to the running path cost. idx is c's index in the node's
// settled choice set, recorded so any tree position can be re-reached from
// the root by index sequence alone. It returns the step's RMR cost (0 or
// 1).
func (e *sengine) apply(c choice, idx int) (int, error) {
	p := c.pid
	step := 0
	switch c.fault {
	case memsim.FaultCrash:
		// A crash itself performs no memory access, so it costs 0 RMRs;
		// its price is the restarted call's re-executed steps. The script
		// position rewinds so the same call restarts from the top.
		e.undos = e.mach.CrashLogged(p, e.fp.Vol, e.undos)
		e.progress[p]--
		e.phase[p] = sIdle
		e.frames.Drop(p)
		e.faultsUsed++
		e.path = append(e.path, idx)
		return 0, nil
	case memsim.FaultLostCAS:
		// Memory applies the real CAS (priced as such — the accumulator
		// sees the true event) while the frame observes failure.
		acc := e.pending[p]
		res, undo := e.mach.ApplyLogged(p, acc)
		e.undos = append(e.undos, undo)
		cost := e.acc.Add(memsim.Event{
			Kind: memsim.EvAccess, PID: p, Proc: e.kinds[p].String(),
			Acc: acc, Res: res, Fault: memsim.FaultLostCAS,
		})
		if cost.RMR {
			step = 1
			e.cost++
		}
		e.advance(p, memsim.Result{Val: acc.Arg1, OK: false})
		e.faultsUsed++
		e.path = append(e.path, idx)
		return step, nil
	}
	if c.start {
		kind := e.scripts[p][e.progress[p]]
		if err := e.frames.Start(e.tmpl, p, kind); err != nil {
			return 0, fmt.Errorf("search: start %v on p%d: %w", kind, p, err)
		}
		e.progress[p]++
		e.kinds[p] = kind
		e.advance(p, memsim.Result{})
	} else {
		res, undo := e.mach.ApplyLogged(p, e.pending[p])
		e.undos = append(e.undos, undo)
		cost := e.acc.Add(memsim.Event{
			Kind: memsim.EvAccess, PID: p, Proc: e.kinds[p].String(),
			Acc: e.pending[p], Res: res,
		})
		if cost.RMR {
			step = 1
			e.cost++
		}
		e.advance(p, res)
	}
	e.path = append(e.path, idx)
	return step, nil
}

// mark is one node's snapshot: copied frames, the small per-process
// scheduler arrays, the high-water mark of the undo log, and the forked
// pricing state. Marks come from the engine's free list: save pops (or
// allocates) one and copies the engine state into its arrays, release
// pushes it back, and the retained frame storage and accumulator become
// the copy targets of the next save of the slot — so the steady-state
// save/restore/release cycle allocates nothing.
type mark struct {
	frames   memsim.FrameSet
	phase    []sPhase
	pending  []memsim.Access
	rets     []memsim.Value
	kinds    []memsim.CallKind
	progress []int
	undos    int
	path     int
	acc      model.Accumulator
	cost     int

	faultsUsed int
}

// forkAcc forks src, recycling spare's backing storage when the model
// supports it (both architecture models do).
func forkAcc(src, spare model.Accumulator) model.Accumulator {
	if r, ok := src.(model.ReusingForker); ok {
		return r.ForkReuse(spare)
	}
	return src.(model.ForkableAccumulator).Fork()
}

func (e *sengine) save() *mark {
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
		m = &mark{
			frames:   memsim.NewFrameSet(e.n),
			phase:    make([]sPhase, e.n),
			pending:  make([]memsim.Access, e.n),
			rets:     make([]memsim.Value, e.n),
			kinds:    make([]memsim.CallKind, e.n),
			progress: make([]int, e.n),
		}
	}
	copy(m.phase, e.phase)
	copy(m.pending, e.pending)
	copy(m.rets, e.rets)
	copy(m.kinds, e.kinds)
	copy(m.progress, e.progress)
	m.undos = len(e.undos)
	m.path = len(e.path)
	m.acc = forkAcc(e.acc, m.acc)
	m.cost = e.cost
	m.faultsUsed = e.faultsUsed
	m.frames.CopyFrom(&e.frames)
	return m
}

// release returns a mark to the engine's free list once no sibling will
// restore from it again; its frame storage and accumulator are the reuse
// targets of the next save.
func (e *sengine) release(m *mark) {
	e.markPool = append(e.markPool, m)
}

// restore winds the engine back to m: machine undos revert in reverse
// order, the scheduler arrays copy back, and the accumulator is re-forked
// from the mark — into the engine's discarded accumulator, which is
// exactly the spare storage the fork wants — so the mark stays pristine
// for further siblings.
func (e *sengine) restore(m *mark) {
	for i := len(e.undos) - 1; i >= m.undos; i-- {
		e.mach.Revert(e.undos[i])
	}
	e.undos = e.undos[:m.undos]
	e.frames.CopyFrom(&m.frames)
	copy(e.phase, m.phase)
	copy(e.pending, m.pending)
	copy(e.rets, m.rets)
	copy(e.kinds, m.kinds)
	copy(e.progress, m.progress)
	e.path = e.path[:m.path]
	e.acc = forkAcc(m.acc, e.acc)
	e.cost = m.cost
	e.faultsUsed = m.faultsUsed
}

// stateKey hashes the canonical post-settle state: machine word values,
// will-succeed LL reservations, each scripted process's frame (encoded by
// content via memsim.EncodeFrameState), pending access and script
// position — and, unlike the explorer's key, the cost model's canonical
// mutable state (the CC cache contents), because the maximal tail cost
// from a node is a function of machine state AND pricing state. What the
// key deliberately omits: the accumulated path cost (a memoized tail is
// exact for any prefix cost — that is the cut's whole power), per-process
// call counts (they only number trace events) and the explorer's
// specification-monitor bits (costs are prefix-insensitive, so merging
// histories with different spec-relevant pasts is sound here). 128-bit
// FNV keeps accidental collisions out of reach for any bounded search.
// The key is built into the engine's reusable scratch buffer and hashed
// through the inlined FNV (memsim.HashKey128) — no allocation per node —
// and it induces exactly the partition of the legacy text walk
// (stateKeyLegacy, kept as the differential-test oracle).
func (e *sengine) stateKey() [16]byte {
	b := e.mach.AppendKeyState(e.keyBuf[:0])
	if e.fp.Enabled() {
		// Remaining fault budget shapes the maximal tail cost below a
		// state, so faults-used joins the key — but only under an enabled
		// policy, keeping k=0 keys byte-identical to fault-free ones.
		b = binary.AppendUvarint(b, uint64(e.faultsUsed))
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil {
			continue
		}
		kind := memsim.CallKind(0)
		if e.phase[p] != sIdle {
			kind = e.kinds[p] // the in-flight call drives the poll-stop rule
		}
		b = append(b, byte(e.phase[p]), byte(kind))
		b = binary.AppendUvarint(b, uint64(e.progress[p]))
		if e.phase[p] == sPending {
			acc := e.pending[p]
			b = append(b, byte(acc.Op))
			b = binary.AppendUvarint(b, uint64(acc.Addr))
			b = binary.AppendVarint(b, acc.Arg1)
			b = binary.AppendVarint(b, acc.Arg2)
		}
		b = memsim.AppendKeyFrameState(b, e.frames.Frame(p))
	}
	if app, ok := e.acc.(model.ModelStateAppender); ok {
		b = app.AppendModelState(b)
	} else {
		e.encBuf.Reset()
		e.acc.(model.ModelStateEncoder).EncodeModelState(&e.encBuf)
		b = append(b, e.encBuf.Bytes()...)
	}
	e.keyBuf = b
	return memsim.HashKey128(b)
}

// stateKeyLegacy is the original reflective fmt-walk state key, kept as
// the oracle of the encoder-equivalence tests: the binary stateKey must
// merge exactly the states this key merges, for every algorithm and model.
func (e *sengine) stateKeyLegacy() [16]byte {
	h := fnv.New128a()
	for a := 0; a < e.mach.Size(); a++ {
		fmt.Fprintf(h, "w%d;", e.mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < e.n; pid++ {
		if addr, ok := e.mach.LLState(memsim.PID(pid)); ok {
			fmt.Fprintf(h, "ll%d=%d;", pid, addr)
		}
	}
	if e.fp.Enabled() {
		fmt.Fprintf(h, "faults%d;", e.faultsUsed)
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil {
			continue
		}
		kind := memsim.CallKind(0)
		if e.phase[p] != sIdle {
			kind = e.kinds[p] // the in-flight call drives the poll-stop rule
		}
		fmt.Fprintf(h, "p%d:%d,%d,%d;", pid, e.phase[p], e.progress[p], kind)
		if e.phase[p] == sPending {
			acc := e.pending[p]
			fmt.Fprintf(h, "a%d,%d,%d,%d;", acc.Op, acc.Addr, acc.Arg1, acc.Arg2)
		}
		if f := e.frames.Frame(p); f != nil {
			io.WriteString(h, "f")
			memsim.EncodeFrameState(h, f)
			io.WriteString(h, ";")
		}
	}
	io.WriteString(h, "m")
	e.acc.(model.ModelStateEncoder).EncodeModelState(h)
	var key [16]byte
	copy(key[:], h.Sum(nil))
	return key
}
