package signal

import (
	"repro/internal/memsim"
)

// SingleWaiter returns the Section 7 "single waiter" algorithm. At most one
// process acts as a waiter, but its identity is not fixed in advance. Two
// global variables W (waiter ID, initially NIL) and S (Boolean) plus an
// array V[0..N-1] with V[i] local to process i yield O(1) RMRs per process
// worst-case in the DSM model, matching the CC upper bound.
//
//	Poll() by p_i, first call:  W := i; return S
//	Poll() by p_i, later calls: return V[i]
//	Signal():                   S := true; w := W; if w != NIL { V[w] := true }
//	Wait() by p_i:              first Poll logic, then spin on V[i] (local)
func SingleWaiter() Algorithm {
	return Algorithm{
		Name:       "single-waiter",
		Primitives: "read/write",
		Variant:    Variant{Waiters: 1, Polling: true, Blocking: true},
		Comment:    "Section 7: O(1) RMR/process worst-case in DSM",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &singleWaiterInstance{
				w: m.Alloc(memsim.NoOwner, "W", 1, memsim.Nil),
				s: m.Alloc(memsim.NoOwner, "S", 1, 0),
			}
			in.v = make([]memsim.Addr, n)
			in.first = make([]memsim.Addr, n)
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				in.v[i] = m.Alloc(pid, "V", 1, 0)
				in.first[i] = m.Alloc(pid, "first", 1, 1)
			}
			return in, nil
		},
	}
}

type singleWaiterInstance struct {
	w     memsim.Addr
	s     memsim.Addr
	v     []memsim.Addr
	first []memsim.Addr
}

var _ memsim.ResumableInstance = (*singleWaiterInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *singleWaiterInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, announcePollFrame{
			fst: in.first[i], ann: in.w, annVal: memsim.Value(i),
			then: in.s, els: in.v[i],
		}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, swSignalFrame{s: in.s, w: in.w, v: in.v}), nil
	case memsim.CallWait:
		return memsim.BuildFrame(dst, swWaitFrame{in: in, i: i}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *singleWaiterInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}
