package signal

import (
	"repro/internal/memsim"
)

// RegisteredWaiters returns the Section 7 "many waiters not fixed in
// advance, one signaler fixed in advance" algorithm. Waiters register, on
// their first Poll(), by setting a dedicated flag in the signaler's local
// memory; the signaler scans the registration flags locally and writes the
// per-waiter local Booleans of every registered waiter. A global variable S
// written at the start of Signal() and read at the end of each first
// Poll() closes the registration race the paper calls out.
//
//	Poll() by p_i, first call:  R[i] := true (in signaler's module); return S
//	Poll() by p_i, later calls: return V[i] (local)
//	Signal() by the fixed s:    S := true; for each i: if R[i] (local) { V[i] := true }
//
// Waiters incur O(1) RMRs worst-case; the signaler incurs O(k) RMRs when k
// waiters have registered (the paper cites [12] for a full O(1)-per-process
// version; this package keeps the simpler O(k) signaler). Amortized complexity is
// O(1) because each signaler RMR targets a registered — hence participating
// — waiter.
func RegisteredWaiters() Algorithm {
	return Algorithm{
		Name:       "registered-waiters",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, FixedSignaler: true, Polling: true},
		Comment:    "Section 7: waiters O(1) worst-case; signaler O(k); amortized O(1)",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			sig := memsim.PID(n - 1)
			in := &registeredInstance{
				sig: sig,
				s:   m.Alloc(memsim.NoOwner, "S", 1, 0),
				r:   make([]memsim.Addr, n),
				v:   make([]memsim.Addr, n),
				fst: make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				in.r[i] = m.Alloc(sig, "R", 1, 0)
				in.v[i] = m.Alloc(pid, "V", 1, 0)
				in.fst[i] = m.Alloc(pid, "first", 1, 1)
			}
			return in, nil
		},
	}
}

type registeredInstance struct {
	sig memsim.PID
	s   memsim.Addr
	r   []memsim.Addr
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.Instance = (*registeredInstance)(nil)

// ResumableProgram implements memsim.Instance.
func (in *registeredInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return &announcePollFrame{
			fst: in.fst[i], ann: in.r[i], annVal: 1,
			then: in.s, els: in.v[i],
		}, nil
	case memsim.CallSignal:
		if pid != in.sig {
			return nil, ErrWrongSignaler
		}
		return &regSignalFrame{in: in}, nil
	default:
		return nil, ErrUnsupported
	}
}
