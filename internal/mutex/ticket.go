package mutex

import (
	"repro/internal/memsim"
)

// Ticket returns the ticket lock: Fetch-And-Increment hands out tickets and
// processes spin reading a shared now-serving counter. FIFO-fair, but the
// spin variable is shared by all waiters, so every release invalidates
// every waiter's cache in CC (Θ(contenders) RMRs amortized per passage) and
// spinning is always remote in DSM.
func Ticket() Algorithm {
	return Algorithm{
		Name:       "ticket",
		Primitives: "read/write/FAA",
		Comment:    "FIFO; shared spin variable: Θ(contenders) per passage in CC, unbounded in DSM",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			return &ticketLock{
				next:    m.Alloc(memsim.NoOwner, "next", 1, 0),
				serving: m.Alloc(memsim.NoOwner, "serving", 1, 0),
			}, nil
		},
	}
}

type ticketLock struct {
	next    memsim.Addr
	serving memsim.Addr
}

var _ Lock = (*ticketLock)(nil)

// AcquireFrame implements Lock: F&I a ticket, spin on now-serving.
//
//	t := FAI(next); await serving = t
func (l *ticketLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &ticketAcquireFrame{next: l.next, serving: l.serving}
}

// ReleaseFrame implements Lock: read then advance now-serving (only the
// holder writes it, so read-then-write is atomic enough).
//
//	serving := serving + 1
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

func (f *ticketAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

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

func (f *ticketReleaseFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// Anderson returns Anderson's array-based queue lock [4]: Fetch-And-
// Increment assigns each process a distinct slot of a Boolean array and
// each process spins on its own slot, so a release invalidates exactly one
// cache: O(1) RMRs per passage in the CC model. The array is shared, so in
// the DSM model a process's slot is generally remote and spinning is
// unbounded — the lock is CC-local-spin only, a concrete instance of the
// paper's point that RMR-efficient techniques are model-specific.
func Anderson() Algorithm {
	return Algorithm{
		Name:       "anderson",
		Primitives: "read/write/FAA",
		Comment:    "O(1)/passage in CC; remote spinning in DSM",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			l := &andersonLock{
				n:     n,
				next:  m.Alloc(memsim.NoOwner, "next", 1, 0),
				slots: m.Alloc(memsim.NoOwner, "slots", n, 0),
				mine:  make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				// Per-process remembered slot index (private state).
				l.mine[i] = m.Alloc(memsim.PID(i), "mySlot", 1, 0)
			}
			m.Init(l.slots, 1) // slot 0 starts granted
			return l, nil
		},
	}
}

type andersonLock struct {
	n     int
	next  memsim.Addr
	slots memsim.Addr
	mine  []memsim.Addr
}

var _ Lock = (*andersonLock)(nil)

// AcquireFrame implements Lock: F&I assigns a slot, remember it,
// spin on the slot, consume the grant.
//
//	slot := FAI(next) mod n; mySlot[i] := slot
//	await slots[slot] != 0; slots[slot] := 0
func (l *andersonLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &andersonAcquireFrame{l: l, pid: pid}
}

// ReleaseFrame implements Lock: read the remembered slot, grant
// the next one.
//
//	slots[(mySlot[i] + 1) mod n] := 1
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

func (f *andersonAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

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

func (f *andersonReleaseFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
