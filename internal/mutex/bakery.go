package mutex

import (
	"repro/internal/memsim"
)

// Bakery returns Lamport's bakery lock [24], the classic first-come-first-
// served mutual exclusion algorithm from atomic reads and writes only —
// the paper's Section 3 cites the FCFS ME complexity line it founded. Each
// process's choosing flag and ticket live in its own memory module, so a
// process's own doorway is local; scanning the other processes' tickets is
// what costs Θ(N) RMRs per passage in both models (the bakery predates
// local-spin techniques).
//
// Tickets grow without bound over a run, which is fine in simulation (the
// paper's space discussions are orthogonal).
func Bakery() Algorithm {
	return Algorithm{
		Name:       "bakery",
		Primitives: "read/write",
		Comment:    "FCFS; Θ(N) RMRs per passage in both models (no local spinning)",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			l := &bakeryLock{
				n:        n,
				choosing: make([]memsim.Addr, n),
				number:   make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				l.choosing[i] = m.Alloc(pid, "choosing", 1, 0)
				l.number[i] = m.Alloc(pid, "number", 1, 0)
			}
			return l, nil
		},
	}
}

type bakeryLock struct {
	n        int
	choosing []memsim.Addr
	number   []memsim.Addr
}

var _ Lock = (*bakeryLock)(nil)

// AcquireFrame implements Lock: the doorway (scan every ticket,
// take max+1) followed by the wait section's per-process defer loops.
//
//	choosing[i] := 1; number[i] := 1 + max_j number[j]; choosing[i] := 0
//	for j != i {
//	  await choosing[j] = 0
//	  await number[j] = 0 or (number[j], j) > (number[i], i)
//	}
func (l *bakeryLock) AcquireFrame(pid memsim.PID) memsim.Resumable {
	return &bakeryAcquireFrame{l: l, i: int(pid)}
}

// ReleaseFrame implements Lock.
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

func (f *bakeryAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
