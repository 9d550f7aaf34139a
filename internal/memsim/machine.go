package memsim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// word is one shared-memory cell together with the bookkeeping needed for
// LL/SC validity and for the "sees" relation of Definition 6.4.
type word struct {
	val Value
	// init is the value the word was allocated (or Init-overridden) with;
	// a VolOwned crash reverts the owner's words to it.
	init Value
	// ver counts nontrivial operations applied to this word; LL records
	// it and SC succeeds only if it is unchanged.
	ver uint64
	// lastWriter is the process whose nontrivial operation last
	// overwrote the word, or NoOwner if the word still holds its initial
	// value.
	lastWriter PID
}

// llink is a process's load-linked reservation.
type llink struct {
	addr  Addr
	ver   uint64
	valid bool
}

// Machine is the shared-memory state of a simulated multiprocessor: a
// growable array of words, each placed in some process's memory module (or
// in no module), plus per-process LL/SC reservations.
//
// Machine is purely sequential state: it applies one atomic operation at a
// time and performs no scheduling itself. Controller layers asynchronous
// processes on top.
//
// A machine's storage outlives its deployment: NewMachine draws a machine
// from a pool and Release returns it, so a recycled machine keeps the
// capacity of its largest deployment and a warm deployment allocates
// nothing here.
type Machine struct {
	n     int
	words []word
	info  []wordInfo // per word, like words
	// arrays holds the address ranges of the Alloc calls that allocated
	// more than one word, in address order.
	arrays []span
	links  []llink
}

// wordInfo is what allocation fixed about a word: its module owner and
// the base name its Alloc call gave. Element names such as Q[3] are
// formatted only when Name asks.
type wordInfo struct {
	owner PID
	name  string
}

// span is the address range [base, end) of one array allocation.
type span struct{ base, end Addr }

// machinePool recycles machines across deployments (see Release).
var machinePool = sync.Pool{New: func() any { return new(Machine) }}

// NewMachine returns a machine for n processes with an empty address space.
// Its storage may come from a released machine; nothing of that machine's
// state is visible through the result.
func NewMachine(n int) *Machine {
	if n < 1 {
		n = 1
	}
	m := machinePool.Get().(*Machine)
	m.n = n
	m.words = m.words[:0]
	m.info = m.info[:0]
	m.arrays = m.arrays[:0]
	if cap(m.links) < n {
		m.links = make([]llink, n)
	} else {
		m.links = m.links[:n]
		clear(m.links)
	}
	return m
}

// Release returns m's storage for reuse by a later NewMachine. Neither m
// nor any closure over it (an Owner method value, say) may be used
// afterwards: a later deployment overwrites it.
func (m *Machine) Release() { machinePool.Put(m) }

// N returns the number of processes the machine was sized for.
func (m *Machine) N() int { return m.n }

// Size returns the number of allocated words.
func (m *Machine) Size() int { return len(m.words) }

// Alloc allocates count consecutive words in owner's memory module (or in
// no module if owner is NoOwner), initialized to init, and returns the
// address of the first. The name is used in diagnostics: Name reports it
// for a single word and as name[0], name[1], ... for the words of an array
// (count > 1). Only the base name is stored; the element names are
// formatted when Name is called.
//
// Allocation order is deterministic, so replaying a setup procedure yields
// identical addresses — a property the lower-bound adversary relies on.
func (m *Machine) Alloc(owner PID, name string, count int, init Value) Addr {
	if count < 1 {
		count = 1
	}
	base := Addr(len(m.words))
	for i := 0; i < count; i++ {
		m.words = append(m.words, word{val: init, init: init, lastWriter: NoOwner})
		m.info = append(m.info, wordInfo{owner, name})
	}
	if count > 1 {
		m.arrays = append(m.arrays, span{base, base + Addr(count)})
	}
	return base
}

// Init overrides the initial value of a single word during setup. It does
// not count as a step of any process: the word's writer history is left
// untouched. Use it for initial conditions that differ between elements of
// an array allocated with one Alloc call.
func (m *Machine) Init(a Addr, v Value) {
	m.words[a].val = v
	m.words[a].init = v
}

// Reset rewinds the machine to its deployment state: every word holds its
// initial value again with no writer history, and no process holds an LL
// reservation. The address space, module owners and names are kept, so
// the addresses a deployed instance recorded stay valid.
func (m *Machine) Reset() {
	for i := range m.words {
		init := m.words[i].init
		m.words[i] = word{val: init, init: init, lastWriter: NoOwner}
	}
	clear(m.links)
}

// Owner returns the module owner of addr (NoOwner for global words).
func (m *Machine) Owner(a Addr) PID {
	if int(a) < 0 || int(a) >= len(m.info) {
		return NoOwner
	}
	return m.info[a].owner
}

// Name returns the debug name of addr: the name its Alloc call gave, with
// the element index appended for an array word (Q[3]), and a%d for an
// address outside the allocated space.
func (m *Machine) Name(a Addr) string {
	if int(a) < 0 || int(a) >= len(m.words) {
		return fmt.Sprintf("a%d", a)
	}
	i, _ := slices.BinarySearchFunc(m.arrays, a, func(s span, a Addr) int {
		return cmp.Compare(s.end, a+1)
	})
	if i < len(m.arrays) && m.arrays[i].base <= a {
		return fmt.Sprintf("%s[%d]", m.info[a].name, a-m.arrays[i].base)
	}
	return m.info[a].name
}

// Load returns the current value of addr without performing a simulated
// access (no process steps, no RMRs). It is intended for checkers and
// diagnostics, not for algorithm code.
func (m *Machine) Load(a Addr) Value { return m.words[a].val }

// LastWriter returns the process whose nontrivial operation most recently
// overwrote addr, or NoOwner if the word was never overwritten.
func (m *Machine) LastWriter(a Addr) PID { return m.words[a].lastWriter }

// Apply performs the atomic operation acc on behalf of pid and returns its
// result. It panics on malformed accesses (out-of-range address or unknown
// op), which indicate bugs in algorithm code rather than runtime errors.
func (m *Machine) Apply(pid PID, acc Access) Result {
	if int(acc.Addr) < 0 || int(acc.Addr) >= len(m.words) {
		panic(fmt.Sprintf("memsim: process %d accessed unallocated address %d", pid, acc.Addr))
	}
	w := &m.words[acc.Addr]
	switch acc.Op {
	case OpRead:
		return Result{Val: w.val, OK: true}
	case OpWrite:
		m.overwrite(pid, acc.Addr, acc.Arg1)
		return Result{OK: true, Wrote: true}
	case OpCAS:
		old := w.val
		if old == acc.Arg1 {
			m.overwrite(pid, acc.Addr, acc.Arg2)
			return Result{Val: old, OK: true, Wrote: true}
		}
		return Result{Val: old, OK: false}
	case OpLL:
		m.links[pid] = llink{addr: acc.Addr, ver: w.ver, valid: true}
		return Result{Val: w.val, OK: true}
	case OpSC:
		l := m.links[pid]
		m.links[pid].valid = false
		if l.valid && l.addr == acc.Addr && l.ver == w.ver {
			m.overwrite(pid, acc.Addr, acc.Arg1)
			return Result{OK: true, Wrote: true}
		}
		return Result{OK: false}
	case OpFetchAdd:
		old := w.val
		m.overwrite(pid, acc.Addr, old+acc.Arg1)
		return Result{Val: old, OK: true, Wrote: true}
	case OpFetchStore:
		old := w.val
		m.overwrite(pid, acc.Addr, acc.Arg1)
		return Result{Val: old, OK: true, Wrote: true}
	case OpTestAndSet:
		old := w.val
		m.overwrite(pid, acc.Addr, 1)
		return Result{Val: old, OK: old == 0, Wrote: true}
	default:
		panic(fmt.Sprintf("memsim: unknown op %d", acc.Op))
	}
}

// Undo captures exactly the machine state one Apply may overwrite: the
// accessed word and the acting process's LL reservation. Reverting undos in
// reverse application order restores the machine bit-for-bit — the undo
// log that lets the backtracking explorer retract one step instead of
// replaying the whole prefix.
type Undo struct {
	pid  PID
	addr Addr
	word word
	link llink
}

// ApplyLogged performs acc like Apply and additionally returns the undo
// record that reverses it.
func (m *Machine) ApplyLogged(pid PID, acc Access) (Result, Undo) {
	if int(acc.Addr) < 0 || int(acc.Addr) >= len(m.words) {
		panic(fmt.Sprintf("memsim: process %d accessed unallocated address %d", pid, acc.Addr))
	}
	u := Undo{pid: pid, addr: acc.Addr, word: m.words[acc.Addr], link: m.links[pid]}
	return m.Apply(pid, acc), u
}

// Revert undoes one logged Apply (or one record of a logged Crash).
// Undos must be reverted in reverse order of application.
func (m *Machine) Revert(u Undo) {
	if u.addr >= 0 {
		m.words[u.addr] = u.word
	}
	m.links[u.pid] = u.link
}

// Crash applies the memory effect of pid crashing: its LL reservation is
// cleared (a reservation is frame state, lost with the process) and,
// under VolOwned, every word of pid's module reverts to its initial
// value. A reverted word counts as overwritten by no one — lastWriter
// resets to NoOwner — but its version still bumps, so reservations other
// processes hold on it are invalidated like any overwrite would.
func (m *Machine) Crash(pid PID, vol Volatility) {
	m.links[pid] = llink{}
	if vol != VolOwned {
		return
	}
	for a := range m.words {
		if m.info[a].owner != pid {
			continue
		}
		w := &m.words[a]
		if w.val == w.init {
			continue
		}
		w.val = w.init
		w.ver++
		w.lastWriter = NoOwner
	}
}

// CrashLogged performs Crash like Crash and appends the undo records
// that reverse it to undos, returning the extended slice. The records
// revert (in reverse order, like any undo run) to the pre-crash words
// and reservation; the reservation-only record uses addr -1, which
// Revert recognizes and skips the word restore for.
func (m *Machine) CrashLogged(pid PID, vol Volatility, undos []Undo) []Undo {
	undos = append(undos, Undo{pid: pid, addr: -1, link: m.links[pid]})
	m.links[pid] = llink{}
	if vol != VolOwned {
		return undos
	}
	for a := range m.words {
		if m.info[a].owner != pid {
			continue
		}
		w := &m.words[a]
		if w.val == w.init {
			continue
		}
		undos = append(undos, Undo{pid: pid, addr: Addr(a), word: *w, link: m.links[pid]})
		w.val = w.init
		w.ver++
		w.lastWriter = NoOwner
	}
	return undos
}

// LLState reports pid's load-linked reservation in canonical form: the
// reserved address and whether a store-conditional there would still
// succeed (reservation held and no nontrivial operation intervened). Two
// machine states with equal word values and equal canonical reservations
// are behaviorally indistinguishable, which is what the explorer's state
// dedup keys on.
func (m *Machine) LLState(pid PID) (Addr, bool) {
	l := m.links[pid]
	if !l.valid || l.ver != m.words[l.addr].ver {
		// A stale reservation fails every SC, exactly like no reservation.
		return 0, false
	}
	return l.addr, true
}

// AppendKeyState appends the machine's behaviorally relevant state to dst
// in canonical binary form: every word value plus each process's canonical
// LL reservation (see LLState). It is the hot-path counterpart of hashing
// word values and LLState pairs through fmt — two machines append equal
// bytes exactly when their word values and canonical reservations agree.
func (m *Machine) AppendKeyState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.words)))
	for i := range m.words {
		dst = binary.AppendVarint(dst, int64(m.words[i].val))
	}
	for p := 0; p < m.n; p++ {
		if addr, ok := m.LLState(PID(p)); ok {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(addr))
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// overwrite applies a nontrivial operation: it stores v, bumps the version
// (invalidating LL reservations), and records the writer.
func (m *Machine) overwrite(pid PID, a Addr, v Value) {
	w := &m.words[a]
	w.val = v
	w.ver++
	w.lastWriter = pid
}

// Snapshot returns a copy of all word values, for fixpoint detection and
// test assertions.
func (m *Machine) Snapshot() []Value {
	vals := make([]Value, len(m.words))
	for i := range m.words {
		vals[i] = m.words[i].val
	}
	return vals
}

// AppendModule appends the values of all words in pid's module to dst, in
// address order, and returns the extended slice. The lower-bound
// adversary compares two such snapshots in one buffer to detect that a
// waiter has reached a local fixpoint (stability, Definition 6.8).
func (m *Machine) AppendModule(dst []Value, pid PID) []Value {
	for i := range m.words {
		if m.info[i].owner == pid {
			dst = append(dst, m.words[i].val)
		}
	}
	return dst
}
