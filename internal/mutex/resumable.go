package mutex

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/memsim"
)

// This file is the native resumable tier of the lock substrate: every lock
// exposes its acquire and release sections as explicit state machines
// (memsim.Resumable frames) that compose into larger resumable programs,
// mirroring how the blocking Lock methods compose over *memsim.Proc. Each
// frame issues exactly the access sequence of its blocking counterpart, so
// traces are byte-identical under identical schedules (runner_test.go
// enforces it across every lock).

// ResumableLock is a Lock whose acquire and release sections also exist as
// resumable frames. All locks in this package implement it; external locks
// that do not are driven through the blocking engine tier automatically.
type ResumableLock interface {
	Lock
	// AcquireFrame returns the resumable acquire section for pid.
	AcquireFrame(pid memsim.PID) memsim.Resumable
	// ReleaseFrame returns the resumable release section for pid.
	ReleaseFrame(pid memsim.PID) memsim.Resumable
}

// SectionRestarter is a ResumableLock whose section frames restart in
// place: Restart turns f, a section frame of this lock's kind (minted for
// any process, by any lock of the kind), into pid's fresh acquire section
// (acquire) or release section of this lock, without allocating. It
// reports false when f is of another kind. Frames that run many critical
// sections (the primitive emulations of internal/primsim) keep one frame
// per section this way.
type SectionRestarter interface {
	ResumableLock
	Restart(f memsim.Resumable, pid memsim.PID, acquire bool) bool
}

// ---- test-and-set ----

// AcquireFrame implements ResumableLock: loop on TAS(flag) until it wins.
func (l *tasLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &tasAcquireFrame{flag: l.flag}
}

// ReleaseFrame implements ResumableLock.
func (l *tasLock) ReleaseFrame(memsim.PID) memsim.Resumable {
	return &writeFrame{addr: l.flag, val: 0}
}

type tasAcquireFrame struct {
	flag memsim.Addr
	pc   uint8
}

func (f *tasAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.pc == 1 && prev.OK {
		return memsim.Access{}, false
	}
	f.pc = 1
	return memsim.AccTAS(f.flag), true
}

func (f *tasAcquireFrame) Return() memsim.Value { return 0 }

// writeFrame performs one write — the release section of the simple locks.
type writeFrame struct {
	addr memsim.Addr
	val  memsim.Value
	pc   uint8
}

func (f *writeFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 1 {
		return memsim.Access{}, false
	}
	f.pc = 1
	return memsim.AccWrite(f.addr, f.val), true
}

func (f *writeFrame) Return() memsim.Value { return 0 }

// ---- test-and-test-and-set ----

// AcquireFrame implements ResumableLock: read-spin until the flag appears
// free, then attempt TAS; on failure, back to the read spin.
func (l *ttasLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &ttasAcquireFrame{flag: l.flag}
}

// ReleaseFrame implements ResumableLock.
func (l *ttasLock) ReleaseFrame(memsim.PID) memsim.Resumable {
	return &writeFrame{addr: l.flag, val: 0}
}

type ttasAcquireFrame struct {
	flag memsim.Addr
	pc   uint8
}

func (f *ttasAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0: // enter the read spin
		f.pc = 1
		return memsim.AccRead(f.flag), true
	case 1: // read result
		if prev.Val != 0 {
			return memsim.AccRead(f.flag), true
		}
		f.pc = 2
		return memsim.AccTAS(f.flag), true
	default: // TAS result
		if prev.OK {
			return memsim.Access{}, false
		}
		f.pc = 1
		return memsim.AccRead(f.flag), true
	}
}

func (f *ttasAcquireFrame) Return() memsim.Value { return 0 }

// ---- ticket ----

// AcquireFrame implements ResumableLock: F&I a ticket, spin on now-serving.
func (l *ticketLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &ticketAcquireFrame{next: l.next, serving: l.serving}
}

// ReleaseFrame implements ResumableLock: read then advance now-serving.
func (l *ticketLock) ReleaseFrame(memsim.PID) memsim.Resumable {
	return &ticketReleaseFrame{serving: l.serving}
}

type ticketAcquireFrame struct {
	next    memsim.Addr
	serving memsim.Addr
	t       memsim.Value
	pc      uint8
}

func (f *ticketAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccFetchAdd(f.next, 1), true
	case 1: // ticket drawn
		f.t = prev.Val
		f.pc = 2
		return memsim.AccRead(f.serving), true
	default: // shared spin on now-serving
		if prev.Val != f.t {
			return memsim.AccRead(f.serving), true
		}
		return memsim.Access{}, false
	}
}

func (f *ticketAcquireFrame) Return() memsim.Value { return 0 }

type ticketReleaseFrame struct {
	serving memsim.Addr
	pc      uint8
}

func (f *ticketReleaseFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.serving), true
	case 1:
		f.pc = 2
		return memsim.AccWrite(f.serving, prev.Val+1), true
	default:
		return memsim.Access{}, false
	}
}

func (f *ticketReleaseFrame) Return() memsim.Value { return 0 }

// ---- Anderson array lock ----

// AcquireFrame implements ResumableLock: F&I assigns a slot, remember it,
// spin on the slot, consume the grant.
func (l *andersonLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &andersonAcquireFrame{l: l, pid: pid}
}

// ReleaseFrame implements ResumableLock: read the remembered slot, grant
// the next one.
func (l *andersonLock) ReleaseFrame(pid memsim.PID) memsim.Resumable {
	return &andersonReleaseFrame{l: l, pid: pid}
}

type andersonAcquireFrame struct {
	l    *andersonLock
	pid  memsim.PID
	slot memsim.Addr
	pc   uint8
}

func (f *andersonAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccFetchAdd(f.l.next, 1), true
	case 1: // slot assigned
		f.slot = memsim.Addr(int(prev.Val) % f.l.n)
		f.pc = 2
		return memsim.AccWrite(f.l.mine[f.pid], memsim.Value(f.slot)), true
	case 2: // remembered; enter the slot spin
		f.pc = 3
		return memsim.AccRead(f.l.slots + f.slot), true
	case 3: // slot read
		if prev.Val == 0 {
			return memsim.AccRead(f.l.slots + f.slot), true
		}
		f.pc = 4
		return memsim.AccWrite(f.l.slots+f.slot, 0), true
	default:
		return memsim.Access{}, false
	}
}

func (f *andersonAcquireFrame) Return() memsim.Value { return 0 }

type andersonReleaseFrame struct {
	l   *andersonLock
	pid memsim.PID
	pc  uint8
}

func (f *andersonReleaseFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.l.mine[f.pid]), true
	case 1:
		nextSlot := memsim.Addr((int(prev.Val) + 1) % f.l.n)
		f.pc = 2
		return memsim.AccWrite(f.l.slots+nextSlot, 1), true
	default:
		return memsim.Access{}, false
	}
}

func (f *andersonReleaseFrame) Return() memsim.Value { return 0 }

// ---- MCS queue lock ----

// AcquireFrame implements ResumableLock: enqueue with F&S, link behind the
// predecessor, spin locally on the own node's flag.
func (l *mcsLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &mcsAcquireFrame{l: l, i: int(pid)}
}

// ReleaseFrame implements ResumableLock: hand over to the successor,
// resolving the enqueue race through CAS on the tail.
func (l *mcsLock) ReleaseFrame(pid memsim.PID) memsim.Resumable {
	return &mcsReleaseFrame{l: l, i: int(pid)}
}

type mcsAcquireFrame struct {
	l  *mcsLock
	i  int
	pc uint8
}

func (f *mcsAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccWrite(f.l.next[f.i], memsim.Nil), true
	case 1:
		f.pc = 2
		return memsim.AccWrite(f.l.locked[f.i], 1), true
	case 2:
		f.pc = 3
		return memsim.AccFetchStore(f.l.tail, memsim.Value(f.i)), true
	case 3: // predecessor known
		if prev.Val == memsim.Nil {
			return memsim.Access{}, false // lock was free
		}
		f.pc = 4
		return memsim.AccWrite(f.l.next[prev.Val], memsim.Value(f.i)), true
	case 4: // linked; enter the local spin
		f.pc = 5
		return memsim.AccRead(f.l.locked[f.i]), true
	default: // local spin on locked[i]
		if prev.Val == 1 {
			return memsim.AccRead(f.l.locked[f.i]), true
		}
		return memsim.Access{}, false
	}
}

func (f *mcsAcquireFrame) Return() memsim.Value { return 0 }

type mcsReleaseFrame struct {
	l  *mcsLock
	i  int
	pc uint8
}

func (f *mcsReleaseFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccRead(f.l.next[f.i]), true
	case 1: // successor read
		if prev.Val != memsim.Nil {
			f.pc = 4
			return memsim.AccWrite(f.l.locked[prev.Val], 0), true
		}
		f.pc = 2
		return memsim.AccCAS(f.l.tail, memsim.Value(f.i), memsim.Nil), true
	case 2: // CAS result
		if prev.OK {
			return memsim.Access{}, false // no successor; lock is free
		}
		f.pc = 3
		return memsim.AccRead(f.l.next[f.i]), true
	case 3: // a successor is enqueueing: wait for the link (local spin)
		if prev.Val == memsim.Nil {
			return memsim.AccRead(f.l.next[f.i]), true
		}
		f.pc = 4
		return memsim.AccWrite(f.l.locked[prev.Val], 0), true
	default:
		return memsim.Access{}, false
	}
}

func (f *mcsReleaseFrame) Return() memsim.Value { return 0 }

// ---- Peterson tournament ----

// AcquireFrame implements ResumableLock: ascend the arbitration tree,
// acquiring each two-process Peterson node.
func (k *petersonLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &petersonAcquireFrame{k: k, i: int(pid)}
}

// ReleaseFrame implements ResumableLock: descend, clearing each node flag.
func (k *petersonLock) ReleaseFrame(pid memsim.PID) memsim.Resumable {
	return &petersonReleaseFrame{k: k, i: int(pid), l: k.height - 1}
}

// Restart implements SectionRestarter.
func (k *petersonLock) Restart(f memsim.Resumable, pid memsim.PID, acquire bool) bool {
	switch s := f.(type) {
	case *petersonAcquireFrame:
		if acquire {
			*s = petersonAcquireFrame{k: k, i: int(pid)}
			return true
		}
	case *petersonReleaseFrame:
		if !acquire {
			*s = petersonReleaseFrame{k: k, i: int(pid), l: k.height - 1}
			return true
		}
	}
	return false
}

var _ SectionRestarter = (*petersonLock)(nil)

type petersonAcquireFrame struct {
	k  *petersonLock
	i  int
	l  int // current tree level
	pc uint8
}

func (f *petersonAcquireFrame) side() int { return (f.i >> f.l) & 1 }

func (f *petersonAcquireFrame) node() int { return f.k.node(f.i, f.l) }

func (f *petersonAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		n := f.node()
		side := f.side()
		switch f.pc {
		case 0: // level entry, or done past the root
			if f.l >= f.k.height {
				return memsim.Access{}, false
			}
			f.pc = 1
			return memsim.AccWrite(f.k.flags+memsim.Addr(2*n+side), 1), true
		case 1:
			f.pc = 2
			return memsim.AccWrite(f.k.turns+memsim.Addr(n), memsim.Value(side)), true
		case 2: // spin head: read the rival's flag
			f.pc = 3
			return memsim.AccRead(f.k.flags + memsim.Addr(2*n+(1-side))), true
		case 3: // rival flag read (short-circuit of the && condition)
			if prev.Val != 1 {
				f.l++
				f.pc = 0
				continue // level acquired
			}
			f.pc = 4
			return memsim.AccRead(f.k.turns + memsim.Addr(n)), true
		default: // turn read
			if prev.Val != memsim.Value(side) {
				f.l++
				f.pc = 0
				continue // level acquired
			}
			f.pc = 3
			return memsim.AccRead(f.k.flags + memsim.Addr(2*n+(1-side))), true
		}
	}
}

func (f *petersonAcquireFrame) Return() memsim.Value { return 0 }

type petersonReleaseFrame struct {
	k *petersonLock
	i int
	l int // current tree level, descending
}

func (f *petersonReleaseFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.l < 0 {
		return memsim.Access{}, false
	}
	n := f.k.node(f.i, f.l)
	side := (f.i >> f.l) & 1
	f.l--
	return memsim.AccWrite(f.k.flags+memsim.Addr(2*n+side), 0), true
}

func (f *petersonReleaseFrame) Return() memsim.Value { return 0 }

// ---- bakery ----

// AcquireFrame implements ResumableLock: the doorway (scan every ticket,
// take max+1) followed by the wait section's per-process defer loops.
func (l *bakeryLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &bakeryAcquireFrame{l: l, i: int(pid)}
}

// ReleaseFrame implements ResumableLock.
func (l *bakeryLock) ReleaseFrame(pid memsim.PID) memsim.Resumable {
	return &writeFrame{addr: l.number[pid], val: 0}
}

type bakeryAcquireFrame struct {
	l   *bakeryLock
	i   int
	j   int
	max memsim.Value
	nj  memsim.Value
	pc  uint8
}

func (f *bakeryAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // doorway: announce choosing
			f.pc = 1
			return memsim.AccWrite(f.l.choosing[f.i], 1), true
		case 1: // doorway scan head
			f.j = 0
			f.max = 0
			f.pc = 2
		case 2: // issue next ticket read, or take the ticket
			if f.j >= f.l.n {
				f.pc = 4
				return memsim.AccWrite(f.l.number[f.i], f.max+1), true
			}
			f.pc = 3
			return memsim.AccRead(f.l.number[f.j]), true
		case 3: // ticket read
			if prev.Val > f.max {
				f.max = prev.Val
			}
			f.j++
			f.pc = 2
		case 4: // ticket taken; leave the doorway
			f.pc = 5
			return memsim.AccWrite(f.l.choosing[f.i], 0), true
		case 5: // wait section loop head
			f.j = 0
			f.pc = 6
		case 6: // next process to defer to
			if f.j >= f.l.n {
				return memsim.Access{}, false // acquired
			}
			if f.j == f.i {
				f.j++
				continue
			}
			f.pc = 7
			return memsim.AccRead(f.l.choosing[f.j]), true
		case 7: // spin until j is out of its doorway
			if prev.Val == 1 {
				return memsim.AccRead(f.l.choosing[f.j]), true
			}
			f.pc = 8
			return memsim.AccRead(f.l.number[f.j]), true
		case 8: // j's ticket read
			if prev.Val == 0 {
				f.j++
				f.pc = 6
				continue
			}
			f.nj = prev.Val
			f.pc = 9
			return memsim.AccRead(f.l.number[f.i]), true
		default: // own ticket re-read: defer or pass
			ni := prev.Val
			if f.nj > ni || (f.nj == ni && f.j > f.i) {
				f.j++
				f.pc = 6
				continue
			}
			f.pc = 8
			return memsim.AccRead(f.l.number[f.j]), true
		}
	}
}

func (f *bakeryAcquireFrame) Return() memsim.Value { return 0 }

// ---- critical-section probe ----

// PassageFrame returns pid's next critical-section passage in resumable
// form: the lock's acquire frame, the probe's owner-stamp and counter
// accesses, and the release frame. ok=false when the lock under test has
// no resumable tier (the workload then stays on the blocking engine).
func (pr *CSProbe) PassageFrame(pid memsim.PID) (memsim.Resumable, bool) {
	rl, ok := pr.lock.(ResumableLock)
	if !ok {
		return nil, false
	}
	return &passageFrame{
		pr:  pr,
		pid: pid,
		acq: rl.AcquireFrame(pid),
		rel: rl.ReleaseFrame(pid),
	}, true
}

// passageFrame is the resumable CSProbe passage: acquire, stamp and re-read
// the owner word, increment the unprotected counter, release; return 1 if
// the passage observed exclusive occupancy.
type passageFrame struct {
	pr  *CSProbe
	pid memsim.PID
	acq memsim.Resumable
	rel memsim.Resumable
	ok  bool
	pc  uint8
}

var _ memsim.ResumableCloner = (*passageFrame)(nil)

func (f *passageFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // enter the acquire section
			f.pc = 1
			if acc, ok := f.acq.Next(memsim.Result{}); ok {
				return acc, true
			}
			f.pc = 2
		case 1: // drive the acquire section
			if acc, ok := f.acq.Next(prev); ok {
				return acc, true
			}
			f.pc = 2
		case 2: // lock held: stamp the owner word
			f.pc = 3
			return memsim.AccWrite(f.pr.csOwner, memsim.Value(f.pid)), true
		case 3: // re-read the stamp
			f.pc = 4
			return memsim.AccRead(f.pr.csOwner), true
		case 4: // exclusive-occupancy verdict; read the counter
			f.ok = prev.Val == memsim.Value(f.pid)
			f.pc = 5
			return memsim.AccRead(f.pr.csCount), true
		case 5: // unprotected increment
			f.pc = 6
			return memsim.AccWrite(f.pr.csCount, prev.Val+1), true
		case 6: // enter the release section
			f.pc = 7
			if acc, ok := f.rel.Next(memsim.Result{}); ok {
				return acc, true
			}
			return memsim.Access{}, false
		case 7: // drive the release section
			if acc, ok := f.rel.Next(prev); ok {
				return acc, true
			}
			return memsim.Access{}, false
		default:
			return memsim.Access{}, false
		}
	}
}

func (f *passageFrame) Return() memsim.Value {
	if f.ok {
		return 1
	}
	return 0
}

// CloneResumable implements memsim.ResumableCloner: the lock sub-frames
// must be copied, not shared.
func (f *passageFrame) CloneResumable() memsim.Resumable {
	c := *f
	c.acq = memsim.CloneResumable(f.acq)
	c.rel = memsim.CloneResumable(f.rel)
	return &c
}

// EncodeState implements memsim.StateEncoder: the lock sub-frames encode
// by content, never by pointer.
func (f *passageFrame) EncodeState(w io.Writer) {
	fmt.Fprintf(w, "%d,%v,%d,", f.pid, f.ok, f.pc)
	memsim.EncodeFrameState(w, f.acq)
	io.WriteString(w, ",")
	memsim.EncodeFrameState(w, f.rel)
}

// AppendState implements memsim.StateAppender: the binary mirror of
// EncodeState, both lock sub-frames by content.
func (f *passageFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.pid))
	if f.ok {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(f.pc))
	dst = memsim.AppendFrameState(dst, f.acq)
	return memsim.AppendFrameState(dst, f.rel)
}

// CopyResumableInto implements memsim.ResumableCopier, recycling dst's
// lock sub-frames when the types line up.
func (f *passageFrame) CopyResumableInto(dst memsim.Resumable) bool {
	d, ok := dst.(*passageFrame)
	if !ok {
		return false
	}
	acq, rel := d.acq, d.rel
	*d = *f
	d.acq = memsim.CloneResumableInto(acq, f.acq)
	d.rel = memsim.CloneResumableInto(rel, f.rel)
	return true
}

var (
	_ memsim.StateAppender   = (*passageFrame)(nil)
	_ memsim.ResumableCopier = (*passageFrame)(nil)
)

// CanResume implements harness.ResumableWorkload: true when the deployed
// lock has a resumable tier.
func (w *Workload) CanResume() bool {
	_, ok := w.lock.(ResumableLock)
	return ok
}

// NextResumable implements harness.ResumableWorkload: the resumable
// counterpart of Next, minting passage frames instead of blocking programs.
func (w *Workload) NextResumable(pid memsim.PID) (string, memsim.Resumable, bool) {
	if w.remaining[pid] <= 0 {
		return "", nil, false
	}
	r, ok := w.PassageFrame(pid)
	if !ok {
		return "", nil, false
	}
	w.remaining[pid]--
	return "passage", r, true
}

// Static checks: every lock in the repository has a resumable tier.
var (
	_ ResumableLock = (*tasLock)(nil)
	_ ResumableLock = (*ttasLock)(nil)
	_ ResumableLock = (*ticketLock)(nil)
	_ ResumableLock = (*andersonLock)(nil)
	_ ResumableLock = (*mcsLock)(nil)
	_ ResumableLock = (*petersonLock)(nil)
	_ ResumableLock = (*bakeryLock)(nil)
)
