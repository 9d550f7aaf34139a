package mutex

import (
	"repro/internal/memsim"
)

// MCS returns the Mellor-Crummey–Scott queue lock [28]: processes enqueue
// with Fetch-And-Store on a shared tail and spin on a "locked" flag inside
// their own queue node. Because each node lives in its owner's memory
// module, spinning is local in both the CC and DSM models: O(1) RMRs per
// passage in each — the canonical example that bounded-RMR locking is
// achievable on DSM machines.
func MCS() Algorithm {
	return Algorithm{
		Name:       "mcs",
		Primitives: "read/write/FAS/CAS",
		Comment:    "O(1)/passage in both CC and DSM (local spinning)",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			l := &mcsLock{
				tail:   m.Alloc(memsim.NoOwner, "tail", 1, memsim.Nil),
				next:   make([]memsim.Addr, n),
				locked: make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				l.next[i] = m.Alloc(pid, "qnext", 1, memsim.Nil)
				l.locked[i] = m.Alloc(pid, "qlocked", 1, 0)
			}
			return l, nil
		},
	}
}

type mcsLock struct {
	tail   memsim.Addr
	next   []memsim.Addr // next[i]: successor of i's queue node (in i's module)
	locked []memsim.Addr // locked[i]: i's spin flag (in i's module)
}

var _ SectionRestarter = (*mcsLock)(nil)

// AcquireFrame implements Lock: enqueue with F&S, link behind the
// predecessor, spin locally on the own node's flag.
//
//	next[i] := NIL; locked[i] := 1
//	pred := FAS(tail, i)
//	if pred != NIL { next[pred] := i; await locked[i] = 0 }
func (l *mcsLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &mcsAcquireFrame{l: l, i: int(pid)}
}

// ReleaseFrame implements Lock: hand over to the successor,
// resolving the enqueue race through CAS on the tail.
//
//	succ := next[i]
//	if succ = NIL {
//	  if CAS(tail, i, NIL) { return }
//	  await (succ := next[i]) != NIL   // a successor is enqueueing
//	}
//	locked[succ] := 0
func (l *mcsLock) ReleaseFrame(pid memsim.PID) memsim.Resumable {
	return &mcsReleaseFrame{l: l, i: int(pid)}
}

// Restart implements SectionRestarter.
func (l *mcsLock) Restart(f memsim.Resumable, pid memsim.PID, acquire bool) bool {
	switch s := f.(type) {
	case *mcsAcquireFrame:
		if acquire {
			*s = mcsAcquireFrame{l: l, i: int(pid)}
			return true
		}
	case *mcsReleaseFrame:
		if !acquire {
			*s = mcsReleaseFrame{l: l, i: int(pid)}
			return true
		}
	}
	return false
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

func (f *mcsAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

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

func (f *mcsReleaseFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
