// Package primsim emulates comparison primitives (CAS, LL/SC) from atomic
// reads and writes, the mechanism behind Corollary 6.14: any algorithm
// using reads, writes and CAS/LL-SC can be transformed into a
// read/write-only algorithm with bounded RMRs per emulated operation, so
// an O(1)-amortized CAS-based signaling algorithm would yield an
// O(1)-amortized read/write algorithm — contradicting Theorem 6.2.
//
// The paper cites the constant-RMR locally-accessible implementations of
// Golab et al. [11, 12]. Reproducing those constructions in full is a
// dissertation-sized project; per the substitution rule, this package
// guards the emulated word with a read/write tournament lock instead
// (mutex.PetersonTournament), giving O(log N) RMRs per operation in the CC
// model. The corollary's logic only needs the emulation to (a) use reads
// and writes exclusively and (b) make *every* operation incur RMRs — the
// property the paper itself highlights ("in such implementations every
// operation incurs RMRs") — and both are preserved.
//
// Every emulated operation is a resumable Frame that composes the lock's
// acquire and release sections (mutex.SectionRestarter); callers embed a
// Frame in their own frame and drive it. An emulated read is one atomic
// read of the word's address and needs no frame.
package primsim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/mutex"
)

// newEmuLock deploys the read/write tournament lock of one emulated
// object.
func newEmuLock(m *memsim.Machine, n int) (mutex.SectionRestarter, error) {
	lk, err := mutex.PetersonTournament().New(m, n)
	if err != nil {
		return nil, fmt.Errorf("deploy emulation lock: %w", err)
	}
	return lk.(mutex.SectionRestarter), nil
}

// EmuCASArray is a fixed-size array of emulated CAS words sharing one
// emulation lock, which keeps the transformed algorithms' space usage
// linear. Sharing the lock is safe (coarser atomicity than per-word locks)
// and mirrors footnote-level freedom in the transformation.
type EmuCASArray struct {
	lock mutex.SectionRestarter
	base memsim.Addr
	size int
}

// NewEmuCASArray allocates size emulated words initialized to init. The
// tournament lock is sized for n processes.
func NewEmuCASArray(m *memsim.Machine, n, size int, name string, init memsim.Value) (*EmuCASArray, error) {
	lk, err := newEmuLock(m, n)
	if err != nil {
		return nil, err
	}
	return &EmuCASArray{
		lock: lk,
		base: m.Alloc(memsim.NoOwner, name, size, init),
		size: size,
	}, nil
}

// Size returns the number of words.
func (e *EmuCASArray) Size() int { return e.size }

// Addr returns word j's address. A single atomic read of it is already
// linearizable against the locked read-modify-write cycles, so an emulated
// read takes no lock.
func (e *EmuCASArray) Addr(j int) memsim.Addr { return e.base + memsim.Addr(j) }

// CAS starts in f an emulated compare-and-swap of word j by pid: under
// the emulation lock, replace the value with new if it equals old. f
// returns 1 if it did.
//
//	acquire; v := read(word j); if v = old { write(word j, new) }; release
//	return v = old
func (e *EmuCASArray) CAS(f *Frame, pid memsim.PID, j int, old, new memsim.Value) {
	f.start(e.lock, pid, opCAS, pcLock)
	f.w, f.arg, f.arg2 = e.Addr(j), old, new
}

// EmuLLSC is a shared word supporting Load-Linked/Store-Conditional,
// implemented from atomic reads and writes only (plus the read/write
// tournament lock), completing the Corollary 6.14 primitive set alongside
// EmuCASArray. A version counter serializes nontrivial operations: LL
// snapshots (value, version) under the lock and parks the version in the
// calling process's own memory module; SC succeeds only if the version is
// unchanged.
type EmuLLSC struct {
	lock mutex.SectionRestarter
	val  memsim.Addr
	ver  memsim.Addr
	// link[i] holds process i's linked version (in i's module); Nil
	// means no outstanding reservation.
	link []memsim.Addr
}

// NewEmuLLSC allocates an emulated LL/SC word initialized to init.
func NewEmuLLSC(m *memsim.Machine, n int, name string, init memsim.Value) (*EmuLLSC, error) {
	lk, err := newEmuLock(m, n)
	if err != nil {
		return nil, err
	}
	e := &EmuLLSC{
		lock: lk,
		val:  m.Alloc(memsim.NoOwner, name, 1, init),
		ver:  m.Alloc(memsim.NoOwner, name+".ver", 1, 0),
		link: make([]memsim.Addr, n),
	}
	for i := 0; i < n; i++ {
		e.link[i] = m.Alloc(memsim.PID(i), name+".link", 1, memsim.Nil)
	}
	return e, nil
}

// Addr returns the word's address; an emulated read is one atomic read
// of it (values are single atomic words).
func (e *EmuLLSC) Addr() memsim.Addr { return e.val }

// LL starts in f pid's load-link of the word: f returns the current value
// and records the version for pid.
//
//	acquire; v := read(val); ver := read(ver); release
//	write(link[p], ver); return v
func (e *EmuLLSC) LL(f *Frame, pid memsim.PID) {
	f.start(e.lock, pid, opLL, pcLock)
	f.w, f.ver, f.link = e.val, e.ver, e.link[pid]
}

// SC starts in f pid's store-conditional of v: it succeeds (f returns 1)
// only if no nontrivial operation intervened since pid's last LL. The
// reservation is consumed either way.
//
//	linked := read(link[p]); write(link[p], NIL); if linked = NIL { return false }
//	acquire; ok := read(ver) = linked; if ok { write(val, v); write(ver, linked+1) }; release
//	return ok
func (e *EmuLLSC) SC(f *Frame, pid memsim.PID, v memsim.Value) {
	f.start(e.lock, pid, opSC, pcLink)
	f.w, f.ver, f.link, f.arg = e.val, e.ver, e.link[pid], v
}

// The emulated operations.
const (
	opCAS uint8 = iota + 1
	opLL
	opSC
)

// Frame program counters: SC's reservation check, the acquire section,
// the operation's accesses under the lock, the release section and LL's
// link write.
const (
	pcLink uint8 = iota
	pcUnlink
	pcLock
	pcAcquire
	pcBody
	pcBody1
	pcBody2
	pcRelease
	pcReleasing
	pcPost
	pcDone
)

// Frame runs emulated operations: an operation (EmuCASArray.CAS,
// EmuLLSC.LL, EmuLLSC.SC) starts in it, and Next drives it like any frame.
// It is a value the caller embeds in its own frame; the zero value is
// ready. Its lock sections are minted by the first operation and restarted
// in place by every later one (mutex.SectionRestarter), so operations
// allocate nothing once the frame's storage is warm.
type Frame struct {
	lock     mutex.SectionRestarter
	pid      memsim.PID
	acq, rel memsim.Resumable // lock sections; live only in their phase
	op, pc   uint8
	w        memsim.Addr // the word: CAS target, LL/SC value
	ver      memsim.Addr
	link     memsim.Addr
	arg      memsim.Value // CAS old, SC value
	arg2     memsim.Value // CAS new
	val      memsim.Value // value read (LL), linked version (SC)
	seen     memsim.Value // version read (LL)
	ok       bool
}

var _ memsim.Resumable = (*Frame)(nil)

func (f *Frame) start(l mutex.SectionRestarter, pid memsim.PID, op, pc uint8) {
	f.lock, f.pid, f.op, f.pc = l, pid, op, pc
	f.val, f.seen, f.ok = 0, 0, false
}

// Next implements memsim.Resumable.
func (f *Frame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case pcLink: // SC: read the reservation
			f.pc = pcUnlink
			return memsim.AccRead(f.link), true
		case pcUnlink: // SC: consume it
			f.val = prev.Val
			if f.val == memsim.Nil {
				f.pc = pcDone
			} else {
				f.pc = pcLock
			}
			return memsim.AccWrite(f.link, memsim.Nil), true
		case pcLock: // enter the acquire section
			if !f.lock.Restart(f.acq, f.pid, true) {
				f.acq = f.lock.AcquireFrame(f.pid)
			}
			prev = memsim.Result{}
			f.pc = pcAcquire
		case pcAcquire:
			if acc, ok := f.acq.Next(prev); ok {
				return acc, true
			}
			f.pc = pcBody
			if f.op == opCAS || f.op == opLL {
				return memsim.AccRead(f.w), true
			}
			return memsim.AccRead(f.ver), true
		case pcBody: // first read under the lock
			switch f.op {
			case opCAS:
				f.ok, f.pc = prev.Val == f.arg, pcRelease
				if !f.ok {
					continue
				}
				return memsim.AccWrite(f.w, f.arg2), true
			case opLL:
				f.val = prev.Val
				f.pc = pcBody1
				return memsim.AccRead(f.ver), true
			default: // SC: version check
				f.ok, f.pc = prev.Val == f.val, pcRelease
				if !f.ok {
					continue
				}
				f.pc = pcBody2
				return memsim.AccWrite(f.w, f.arg), true
			}
		case pcBody1: // LL: version read
			f.seen = prev.Val
			f.pc = pcRelease
		case pcBody2: // SC: bump the version
			f.pc = pcRelease
			return memsim.AccWrite(f.ver, f.val+1), true
		case pcRelease: // enter the release section
			if !f.lock.Restart(f.rel, f.pid, false) {
				f.rel = f.lock.ReleaseFrame(f.pid)
			}
			prev = memsim.Result{}
			f.pc = pcReleasing
		case pcReleasing:
			if acc, ok := f.rel.Next(prev); ok {
				return acc, true
			}
			if f.op != opLL {
				f.pc = pcDone
				continue
			}
			f.pc = pcPost
			return memsim.AccWrite(f.link, f.seen), true
		default:
			f.pc = pcDone
			return memsim.Access{}, false
		}
	}
}

// Return implements memsim.Resumable: LL's value, or 1 for a successful
// CAS or SC and 0 otherwise.
func (f *Frame) Return() memsim.Value {
	switch {
	case f.op == opLL:
		return f.val
	case f.ok:
		return 1
	}
	return 0
}

// CloneInto implements memsim.Resumable, reusing dst's lock-section
// storage. A section f has not minted yet leaves dst's storage as it was:
// outside its phase a section's content is never read.
func (f *Frame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[Frame](dst)
	acq, rel := d.acq, d.rel
	*d = *f
	d.acq, d.rel = acq, rel
	if f.acq != nil {
		d.acq = f.acq.CloneInto(acq)
	}
	if f.rel != nil {
		d.rel = f.rel.CloneInto(rel)
	}
	return d
}

// section is the lock section in its phase, or nil: a section outside its
// phase is restarted before it runs again, so its content is not state.
func (f *Frame) section() memsim.Resumable {
	switch f.pc {
	case pcAcquire:
		return f.acq
	case pcReleasing:
		return f.rel
	}
	return nil
}

// AppendState appends f's canonical state: the operation, its arguments
// and progress, and the lock section in its phase by content. Fields left
// over from a finished operation are included too: they follow from the
// caller's path within the call, so equal states still encode equally,
// and at worst states that could merge are kept apart.
func (f *Frame) AppendState(dst []byte) []byte {
	dst = append(dst, f.op, f.pc)
	if f.ok {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, v := range [...]int64{int64(f.pid), int64(f.w), int64(f.ver), int64(f.link),
		int64(f.arg), int64(f.arg2), int64(f.val), int64(f.seen)} {
		dst = binary.AppendVarint(dst, v)
	}
	return memsim.AppendFrameState(dst, f.section())
}
