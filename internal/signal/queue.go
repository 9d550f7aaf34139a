package signal

import (
	"repro/internal/memsim"
	"repro/internal/queue"
)

// QueueSignal returns the Section 7 "many waiters not fixed in advance, one
// signaler not fixed in advance" algorithm built on a Fetch-And-Increment
// registration queue. Because Fetch-And-Increment is strictly stronger than
// the read/write/CAS/LL-SC primitive set of Theorem 6.2 and Corollary 6.14,
// this algorithm closes the complexity gap the lower bound establishes:
// waiters incur O(1) RMRs worst-case and the signaler O(k) when k waiters
// participate, i.e. O(1) amortized.
//
//	Poll() by p_i, first call:  t := FAA(tail, 1); Q[t] := i; return S
//	Poll() by p_i, later calls: return V[i] (local)
//	Signal():                   S := true; k := tail;
//	                            for j < k { wait until Q[j] != NIL; V[Q[j]] := true }
//
// The busy-wait on Q[j] only spans the window between a waiter's FAA and
// its slot write; the solution is terminating (the paper's full version
// uses an O(1)-RMR queue from the F&I mutual-exclusion literature — see
// internal/queue's package comment for the registry that stands in for it).
func QueueSignal() Algorithm {
	return Algorithm{
		Name:       "queue",
		Primitives: "read/write/FAA",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Section 7: O(1) amortized via Fetch-And-Increment registry",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &queueInstance{
				s:   m.Alloc(memsim.NoOwner, "S", 1, 0),
				reg: queue.NewRegistry(m, n, "Q"),
				v:   make([]memsim.Addr, n),
				fst: make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				in.v[i] = m.Alloc(pid, "V", 1, 0)
				in.fst[i] = m.Alloc(pid, "first", 1, 1)
			}
			return in, nil
		},
	}
}

type queueInstance struct {
	s   memsim.Addr
	reg *queue.Registry
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.ResumableInstance = (*queueInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *queueInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return registerPollInto(dst, in.fst[i], in.v[i], in.s, in.reg, memsim.Value(i)), nil
	case memsim.CallSignal:
		return registrySignalInto(dst, in.s, in.v, in.reg), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *queueInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}
