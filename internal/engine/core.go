// Package engine is the node-expansion core shared by the two exhaustive
// state-space engines: internal/explore (Specification 4.1 on every
// schedule) and internal/search (the maximal CC or DSM RMR bill). Both
// fold over the same schedule tree, so the tree itself lives here once —
// one live execution per worker (resumable frames in a memsim.FrameSet,
// shared memory rewound through the machine's undo log), the per-process
// scheduler view, fault choice points, pooled node snapshots, the plain
// canonical state key, and the whole reduction layer (sleep sets, PID
// symmetry and the memory and fault rules of the independence oracle).
//
// An engine plugs in its fold through one Policy: what it records when a
// call starts, an access applies, a call ends or a process crashes; what
// it snapshots with every node; the bytes it adds to the state key; and
// when a call start commutes with a sibling.
//
// Everything around the walk lives here too: the striped claim table
// (Table, the explorer's dedup and the searcher's memo), the worker pool
// and its counters and telemetry flush (Pool, Worker, Tally, Metrics),
// the checkpoint unit loop (RunUnits) and the Execution-based driver of
// the engines' reference replays (Driver). Each engine keeps only its
// fold: the DFS over a node's children, the explorer's shallow pass and
// the searcher's spine pass and witness reconstruction.
package engine

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/memsim"
)

// Phase mirrors the controller's view of one process.
type Phase uint8

// The process phases.
const (
	// Idle: no call in flight.
	Idle Phase = iota
	// Pending: the in-flight call has an access waiting to be scheduled.
	Pending
	// Done: the in-flight call returned; the next settle collects it.
	Done
)

// Choice is one scheduling decision: apply PID's pending access, start
// PID's next scripted call, or — under an enabled FaultPolicy — inject a
// fault at PID's pending access (crash the process, or apply its CAS and
// drop the response).
type Choice struct {
	PID   memsim.PID
	Start bool
	Fault memsim.FaultKind
}

// String renders the choice compactly: "p0" step, "p1+" call start,
// "p0!" crash, "p0?" lost CAS.
func (c Choice) String() string {
	switch c.Fault {
	case memsim.FaultCrash:
		return fmt.Sprintf("p%d!", c.PID)
	case memsim.FaultLostCAS:
		return fmt.Sprintf("p%d?", c.PID)
	}
	if c.Start {
		return fmt.Sprintf("p%d+", c.PID)
	}
	return fmt.Sprintf("p%d", c.PID)
}

// Policy is what an engine adds to the core. The lifecycle hooks run
// inside Settle and Apply while Kind still names the call concerned;
// no method may allocate per node once warm.
type Policy interface {
	// Started: p began a call of kind (frame minted, before its first
	// access is requested).
	Started(p memsim.PID, kind memsim.CallKind)
	// Accessed: p's pending access acc applied to memory with result
	// res. fault is FaultLostCAS when the frame observes a failed CAS
	// instead of res, FaultNone otherwise.
	Accessed(p memsim.PID, acc memsim.Access, res memsim.Result, fault memsim.FaultKind)
	// Ended: settle is collecting p's completed call (phase still Done,
	// return value in Ret).
	Ended(p memsim.PID)
	// Crashed: p's in-flight call was abandoned by a crash.
	Crashed(p memsim.PID)

	// SaveState copies the policy's per-path state into spare — a value
	// an earlier SaveState returned, or nil on a fresh snapshot — and
	// returns it. A recycled core's marks may hand it a value another
	// policy (or the same policy over another model) saved, which it
	// must treat as nil. RestoreState copies a saved value back; the
	// value stays valid for further restores.
	SaveState(spare any) any
	RestoreState(saved any)

	// AppendKeyHead appends the policy's global state after the machine
	// state, AppendKeyProc each scripted process's state after its phase
	// byte, and AppendKeyTail whatever follows every process section.
	// Together with the core's bytes they must be self-delimiting and
	// name everything that decides the policy's fold of the subtree.
	AppendKeyHead(b []byte) []byte
	AppendKeyProc(b []byte, p memsim.PID) []byte
	AppendKeyTail(b []byte) []byte

	// StartCommutes is the independence rule for a pair involving a call
	// start: called right after Apply(c), before the child settles, for
	// non-fault choices u and c of which at least one is a start. True
	// claims that applying u and c in either order reaches the same
	// canonical state and the same fold.
	StartCommutes(u, c Choice) bool
}

// Config is the workload a core runs.
type Config struct {
	// Name prefixes the core's errors ("explore", "search").
	Name    string
	Factory memsim.Factory
	N       int
	Scripts map[memsim.PID][]memsim.CallKind
	Faults  memsim.FaultPolicy
}

// CheckScripts rejects a script for a PID outside [0, n): such a process
// does not exist on the machine.
func CheckScripts(n int, scripts map[memsim.PID][]memsim.CallKind) error {
	bad, found := memsim.PID(0), false
	for p := range scripts {
		if (int(p) < 0 || int(p) >= n) && (!found || p < bad) {
			bad, found = p, true
		}
	}
	if found {
		return fmt.Errorf("script for p%d, outside the machine's processes [0, %d)", bad, n)
	}
	return nil
}

// Core is the mutable state of one worker's walk over the schedule tree:
// one machine, one frame per process, the per-process scheduler view,
// the machine undo log and the path of applied choice indices.
type Core struct {
	name     string
	mach     *memsim.Machine
	inst     memsim.Instance
	n        int
	scripts  [][]memsim.CallKind // dense per-pid view of Config.Scripts; nil = unscripted
	frames   memsim.FrameSet
	phase    []Phase
	pending  []memsim.Access
	rets     []memsim.Value
	kinds    []memsim.CallKind
	progress []int
	undos    []memsim.Undo
	path     []int // applied choice indices, for task prefixes
	pol      Policy

	// Fault dimension: the policy in force and the number of faults the
	// current path has injected. faultsUsed joins the state key whenever
	// the policy is enabled — a state reached with budget left must never
	// merge with the same state reached without.
	fp         memsim.FaultPolicy
	faultsUsed int

	// Hot-path scratch, all core-owned and reused node to node and run to
	// run: the state-key build buffer, per-depth settle buffers, every
	// node snapshot the core has made (marks) and the free list of those
	// not in use. See "hot-path memory discipline" in docs/ARCHITECTURE.md.
	keyBuf     []byte
	choiceBufs [][]Choice
	marks      []*Mark
	free       []*Mark

	// Telemetry-only statistics of the scratch structures above: pool
	// reuse this run, the marks in use (the misses are their peak), and
	// the undo-log high-water mark, sampled at Save. Never read by the
	// walk itself.
	poolHits    int
	poolMisses  int
	outstanding int
	undoMax     int
}

// cores recycles cores across runs: New takes one, Recycle puts it back.
var cores = sync.Pool{New: func() any { return new(Core) }}

// New deploys cfg's instance on a fresh machine and attaches the policy
// that policy builds for the core. The core comes from a pool, so its
// snapshots, buffers and frame storage may be an earlier run's, and
// policy receives that run's policy as spare to rebuild in place: nil
// on a new core, and possibly another engine's policy. cfg.Scripts must
// have passed CheckScripts (the engines check it once, at their run
// entry). Recycle returns the core once the run is done with it.
func New(cfg Config, policy func(e *Core, spare Policy) (Policy, error)) (*Core, error) {
	e := cores.Get().(*Core)
	e.reset(cfg)
	inst, err := cfg.Factory(e.mach, cfg.N)
	if err != nil {
		e.Recycle()
		return nil, fmt.Errorf("deploy instance: %w", err)
	}
	e.inst = inst
	pol, err := policy(e, e.pol)
	if err != nil {
		e.Recycle()
		return nil, err
	}
	e.pol = pol
	return e, nil
}

// reset readies the core for cfg on a new machine, every process idle at
// the root. It keeps the buffers and the marks, all of which go back on
// the free list; only the marks' per-process storage depends on N, so
// the marks are dropped when N changes. A kept mark may hold frames of
// an earlier deployment and another policy's saved state: Save
// overwrites its frames whole and hands its policy value to SaveState
// as a spare, which a policy treats as nil unless it is its own kind.
func (e *Core) reset(cfg Config) {
	if cfg.N != e.n {
		e.marks, e.free = nil, nil
	}
	e.name, e.n = cfg.Name, cfg.N
	e.mach = memsim.NewMachine(cfg.N)
	e.scripts = denseScripts(e.scripts, cfg.N, cfg.Scripts)
	e.frames.Reset(cfg.N)
	e.phase = zeroed(e.phase, cfg.N)
	e.pending = zeroed(e.pending, cfg.N)
	e.rets = zeroed(e.rets, cfg.N)
	e.kinds = zeroed(e.kinds, cfg.N)
	e.progress = zeroed(e.progress, cfg.N)
	e.undos, e.path = e.undos[:0], e.path[:0]
	e.fp, e.faultsUsed = cfg.Faults, 0
	e.free = append(e.free[:0], e.marks...)
	e.poolHits, e.poolMisses, e.outstanding, e.undoMax = 0, 0, 0, 0
}

// Recycle returns the core and its machine to the pool New draws from.
// Neither the core, its policy, its marks nor its machine may be used
// afterwards. (Release, by contrast, returns one mark to the core.)
func (e *Core) Recycle() {
	if e.mach == nil {
		panic("engine: core recycled twice")
	}
	e.mach.Release()
	e.mach, e.inst = nil, nil
	cores.Put(e)
}

// zeroed returns s resliced to n zero elements, growing it only when its
// capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// denseScripts flattens the per-pid script map (PIDs already checked)
// into dst, resliced to n: a pid-indexed slice, so the settle/apply/key
// hot loops index instead of hashing. A nil row means the pid is unscripted; a
// present-but-empty script stays non-nil (scripted, nothing to run).
func denseScripts(dst [][]memsim.CallKind, n int, scripts map[memsim.PID][]memsim.CallKind) [][]memsim.CallKind {
	dense := zeroed(dst, n)
	for p, s := range scripts {
		if s == nil {
			s = []memsim.CallKind{}
		}
		dense[p] = s
	}
	return dense
}

// N is the number of processes.
func (e *Core) N() int { return e.n }

// Machine is the live machine (read-only for callers).
func (e *Core) Machine() *memsim.Machine { return e.mach }

// Script is p's call script; nil when p is unscripted.
func (e *Core) Script(p memsim.PID) []memsim.CallKind { return e.scripts[p] }

// Phase is p's scheduling phase.
func (e *Core) Phase(p memsim.PID) Phase { return e.phase[p] }

// Pending is p's pending access (meaningful while Phase is Pending).
func (e *Core) Pending(p memsim.PID) memsim.Access { return e.pending[p] }

// Kind is the kind of p's current (or last) call.
func (e *Core) Kind(p memsim.PID) memsim.CallKind { return e.kinds[p] }

// Ret is the return value of p's completed call (meaningful while Phase
// is Done).
func (e *Core) Ret(p memsim.PID) memsim.Value { return e.rets[p] }

// Progress is the number of p's scripted calls started so far.
func (e *Core) Progress(p memsim.PID) int { return e.progress[p] }

// Frame is p's in-flight frame, nil when p is idle.
func (e *Core) Frame(p memsim.PID) memsim.Resumable { return e.frames.Frame(p) }

// Faults is the fault policy in force.
func (e *Core) Faults() memsim.FaultPolicy { return e.fp }

// FaultsUsed is the number of faults the current path injected. It is a
// test oracle: the state-key partition tests of explore and search fold it
// into their reference key.
func (e *Core) FaultsUsed() int { return e.faultsUsed }

// Path is the applied choice indices from the root, valid until the next
// Apply or Restore.
func (e *Core) Path() []int { return e.path }

// KeyBytes is the encoding the last state key hashed, valid until the
// next key computation. It is a test oracle: the key-digest and partition
// tests of explore and search read it.
func (e *Core) KeyBytes() []byte { return e.keyBuf }

// PoolStats reports the snapshot pool's reuse this run (telemetry only).
// A Save that raises the number of outstanding marks above this run's
// peak counts a miss, every other Save a hit: the count a new core
// gives, where exactly those Saves find the free list empty, so the
// counts are a function of the walk however warm the core is.
func (e *Core) PoolStats() (hits, misses int) { return e.poolHits, e.poolMisses }

// UndoMax is the undo log's high-water mark, sampled at Save (telemetry
// only).
func (e *Core) UndoMax() int { return e.undoMax }

// advance feeds prev into pid's frame and records its next scheduling point.
func (e *Core) advance(pid memsim.PID, prev memsim.Result) {
	f := e.frames.Frame(pid)
	if acc, ok := f.Next(prev); ok {
		e.pending[pid] = acc
		e.phase[pid] = Pending
	} else {
		e.rets[pid] = f.Return()
		e.phase[pid] = Done
	}
}

// Settle collects completed calls (eagerly, so call-end events get the
// earliest consistent position, exactly like Driver) and
// returns the open scheduling choices in deterministic order.
func (e *Core) Settle() []Choice {
	return e.settleInto(nil)
}

// SettleAt is Settle writing into the core's depth-indexed choice buffer:
// a DFS settles each node exactly once and recursion uses deeper buffers,
// so one buffer per depth makes the settle loop allocation-free after
// warm-up. The returned slice is valid until the same depth settles again.
func (e *Core) SettleAt(depth int) []Choice {
	for len(e.choiceBufs) <= depth {
		e.choiceBufs = append(e.choiceBufs, make([]Choice, 0, e.n))
	}
	choices := e.settleInto(e.choiceBufs[depth][:0])
	e.choiceBufs[depth] = choices
	return choices
}

func (e *Core) settleInto(choices []Choice) []Choice {
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		script := e.scripts[p]
		if script == nil {
			continue
		}
		if e.phase[p] == Done {
			e.pol.Ended(p)
			if e.kinds[p] == memsim.CallPoll && e.rets[p] != 0 {
				// The waiter observed the signal; the problem statement
				// says it stops polling.
				e.progress[p] = len(script)
			}
			e.phase[p] = Idle
			e.frames.Drop(p)
		}
		if e.phase[p] == Pending {
			choices = append(choices, Choice{PID: p})
			continue
		}
		if e.phase[p] == Idle && e.progress[p] < len(script) {
			choices = append(choices, Choice{PID: p, Start: true})
		}
	}
	// Fault choice points come after every regular choice, so the
	// fault-free enumeration is a prefix of the faulty one and a disabled
	// policy changes nothing. The order mirrors the replay drivers
	// exactly: PID order, crash before lost CAS.
	if e.fp.Enabled() && e.faultsUsed < e.fp.Max {
		for pid := 0; pid < e.n; pid++ {
			p := memsim.PID(pid)
			if e.phase[p] != Pending {
				continue
			}
			if e.fp.Kinds.Has(memsim.FaultCrash) {
				choices = append(choices, Choice{PID: p, Fault: memsim.FaultCrash})
			}
			if e.fp.Kinds.Has(memsim.FaultLostCAS) && e.pending[p].Op == memsim.OpCAS &&
				e.mach.Load(e.pending[p].Addr) == e.pending[p].Arg1 {
				choices = append(choices, Choice{PID: p, Fault: memsim.FaultLostCAS})
			}
		}
	}
	return choices
}

// Apply performs one scheduling decision: start pid's next scripted call,
// grant its pending access (logging the machine undo), or inject a fault.
// idx is c's index in the node's settled choice set, recorded so that any
// tree position can be re-reached from the root by index sequence alone
// (how workers hand off subtrees).
func (e *Core) Apply(c Choice, idx int) error {
	p := c.PID
	switch {
	case c.Fault == memsim.FaultCrash:
		// Mirror Controller.Crash: the in-flight call is abandoned (frame
		// dropped), the script position rewinds so the same call restarts
		// from the top, and the machine applies the fault's memory effect
		// through the undo log.
		e.undos = e.mach.CrashLogged(p, e.fp.Vol, e.undos)
		e.progress[p]--
		e.phase[p] = Idle
		e.frames.Drop(p)
		e.faultsUsed++
		e.pol.Crashed(p)
	case c.Fault == memsim.FaultLostCAS:
		// Mirror Controller.StepLostCAS: memory applies the real CAS while
		// the frame observes failure.
		acc := e.pending[p]
		res, undo := e.mach.ApplyLogged(p, acc)
		e.undos = append(e.undos, undo)
		e.pol.Accessed(p, acc, res, memsim.FaultLostCAS)
		e.advance(p, memsim.Result{Val: acc.Arg1, OK: false})
		e.faultsUsed++
	case c.Start:
		kind := e.scripts[p][e.progress[p]]
		if err := e.frames.Start(e.inst, p, kind); err != nil {
			return fmt.Errorf("%s: start %v on p%d: %w", e.name, kind, p, err)
		}
		e.progress[p]++
		e.kinds[p] = kind
		e.pol.Started(p, kind)
		e.advance(p, memsim.Result{})
	default:
		acc := e.pending[p]
		res, undo := e.mach.ApplyLogged(p, acc)
		e.undos = append(e.undos, undo)
		e.pol.Accessed(p, acc, res, memsim.FaultNone)
		e.advance(p, res)
	}
	e.path = append(e.path, idx)
	return nil
}

// Mark is one node's snapshot: copied frames, the small per-process
// scheduler arrays, the high-water marks of the undo log and the path,
// and the policy's saved state. Marks come from the core's free list:
// Save pops (or allocates) one and copies the core state into its
// arrays, Release pushes it back, and the retained frame storage and
// policy value become the copy targets of the next Save — so the
// steady-state save/restore/release cycle allocates nothing.
type Mark struct {
	frames     memsim.FrameSet
	phase      []Phase
	pending    []memsim.Access
	rets       []memsim.Value
	kinds      []memsim.CallKind
	progress   []int
	undos      int
	path       int
	faultsUsed int
	pol        any
}

// Save snapshots the current node.
func (e *Core) Save() *Mark {
	if len(e.undos) > e.undoMax {
		e.undoMax = len(e.undos)
	}
	if e.outstanding++; e.outstanding > e.poolMisses {
		e.poolMisses++
	} else {
		e.poolHits++
	}
	var m *Mark
	if n := len(e.free); n > 0 {
		m = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		m = &Mark{
			frames:   memsim.NewFrameSet(e.n),
			phase:    make([]Phase, e.n),
			pending:  make([]memsim.Access, e.n),
			rets:     make([]memsim.Value, e.n),
			kinds:    make([]memsim.CallKind, e.n),
			progress: make([]int, e.n),
		}
		e.marks = append(e.marks, m)
	}
	copy(m.phase, e.phase)
	copy(m.pending, e.pending)
	copy(m.rets, e.rets)
	copy(m.kinds, e.kinds)
	copy(m.progress, e.progress)
	m.undos = len(e.undos)
	m.path = len(e.path)
	m.faultsUsed = e.faultsUsed
	m.pol = e.pol.SaveState(m.pol)
	// Mark-owned frames never alias core-owned frames, so further core
	// steps cannot disturb the snapshot. The copy overwrites every slot
	// whole, so frames a recycled mark kept from an earlier deployment
	// are never read.
	m.frames.CopyFrom(&e.frames)
	return m
}

// Release returns a mark to the free list once no sibling will restore
// from it again.
func (e *Core) Release(m *Mark) {
	e.free = append(e.free, m)
	e.outstanding--
}

// Restore winds the core back to m: machine undos revert in reverse
// order, the scheduler arrays copy back, the path truncates and the
// policy restores its state. Frames are copied (into the core's retained
// frame storage) so the mark stays pristine for further siblings.
func (e *Core) Restore(m *Mark) {
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
	e.faultsUsed = m.faultsUsed
	e.pol.RestoreState(m.pol)
}

// StateKey hashes the canonical post-settle state: machine word values
// and will-succeed LL reservations (version counters and writer history
// do not affect future behavior), the policy's head, the faults used
// (only under an enabled policy, keeping k=0 keys byte-identical to
// fault-free ones), each scripted process's phase, policy bytes, script
// position, pending access and frame, and the policy's tail. Frames
// encode through memsim.AppendKeyFrameState, so sub-frames hash by
// content rather than by heap address. The encoding is built into the
// core's reusable scratch buffer and hashed through the inlined 128-bit
// FNV (memsim.HashKey128) — no allocation per node.
func (e *Core) StateKey() [16]byte {
	b := e.mach.AppendKeyState(e.keyBuf[:0])
	b = e.pol.AppendKeyHead(b)
	if e.fp.Enabled() {
		b = binary.AppendUvarint(b, uint64(e.faultsUsed))
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil {
			continue
		}
		b = e.appendProc(b, p)
		b = memsim.AppendKeyFrameState(b, e.frames.Frame(p))
	}
	b = e.pol.AppendKeyTail(b)
	e.keyBuf = b
	return memsim.HashKey128(b)
}

// appendProc appends p's scheduler section of the state key: phase,
// policy bytes, script position and the pending access, if any.
func (e *Core) appendProc(b []byte, p memsim.PID) []byte {
	b = append(b, byte(e.phase[p]))
	b = e.pol.AppendKeyProc(b, p)
	b = binary.AppendUvarint(b, uint64(e.progress[p]))
	if e.phase[p] == Pending {
		acc := e.pending[p]
		b = append(b, byte(acc.Op))
		b = binary.AppendUvarint(b, uint64(acc.Addr))
		b = binary.AppendVarint(b, acc.Arg1)
		b = binary.AppendVarint(b, acc.Arg2)
	}
	return b
}

// BoolBit encodes a flag as one key byte.
func BoolBit(v bool) byte {
	if v {
		return 1
	}
	return 0
}
