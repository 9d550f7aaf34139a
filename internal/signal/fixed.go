package signal

import (
	"repro/internal/memsim"
)

// FixedWaiters returns the Section 7 "many waiters, fixed in advance"
// algorithm: an array V[0..N-2] of Booleans with V[i] local to waiter i
// (processes 0..N-2 are the fixed waiters; any process may signal).
//
//	Poll() by p_i: return V[i]
//	Signal():      for each fixed waiter j: V[j] := true
//	Wait() by p_i: spin on V[i] (local)
//
// Worst-case RMR complexity is O(W) for the signaler and O(1) for waiters.
// Amortized complexity can exceed O(1) when only o(W) waiters have
// participated by the time Signal() runs — the behaviour experiment E6
// demonstrates and FixedWaitersTerminating repairs.
func FixedWaiters() Algorithm {
	return Algorithm{
		Name:       "fixed-waiters",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, FixedWaiters: true, Polling: true, Blocking: true},
		Comment:    "Section 7: O(W) signaler worst-case; amortized >O(1) with sparse participation",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &fixedWaitersInstance{v: make([]memsim.Addr, n)}
			for i := 0; i < n; i++ {
				in.v[i] = m.Alloc(memsim.PID(i), "V", 1, 0)
			}
			return in, nil
		},
	}
}

type fixedWaitersInstance struct {
	v []memsim.Addr
}

var _ memsim.Instance = (*fixedWaitersInstance)(nil)

// ResumableProgram implements memsim.Instance.
func (in *fixedWaitersInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return &readRetFrame{addr: in.v[i]}, nil
	case memsim.CallSignal:
		return &writeFanFrame{addrs: in.v[:len(in.v)-1]}, nil
	case memsim.CallWait:
		return &spinNonzeroFrame{addr: in.v[i]}, nil
	default:
		return nil, ErrUnsupported
	}
}

// FixedWaitersTerminating returns the terminating refinement sketched in
// Section 7 that achieves O(1) *amortized* RMR complexity in all histories:
// before writing any V[j], the signaler busy-waits until waiter j has
// participated, so every signaler RMR is matched by a participating waiter.
//
// The participation flags Present[0..N-2] live in the signaler's memory
// module so the signaler's busy-wait is local; this requires the signaler
// (process N-1 by convention) to be fixed in advance, a restriction the
// paper leaves implicit. The resulting solution is
// terminating but not wait-free: Signal() blocks until every fixed waiter
// has begun participating.
func FixedWaitersTerminating() Algorithm {
	return Algorithm{
		Name:       "fixed-waiters-terminating",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, FixedWaiters: true, FixedSignaler: true, Polling: true},
		Comment:    "Section 7: O(1) amortized RMRs in all histories; Signal blocks for participation",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			sig := memsim.PID(n - 1)
			in := &fixedTermInstance{
				sig:     sig,
				v:       make([]memsim.Addr, n),
				present: make([]memsim.Addr, n),
				first:   make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				in.v[i] = m.Alloc(pid, "V", 1, 0)
				in.present[i] = m.Alloc(sig, "Present", 1, 0)
				in.first[i] = m.Alloc(pid, "first", 1, 1)
			}
			return in, nil
		},
	}
}

type fixedTermInstance struct {
	sig     memsim.PID
	v       []memsim.Addr
	present []memsim.Addr
	first   []memsim.Addr
}

var _ memsim.Instance = (*fixedTermInstance)(nil)

// ResumableProgram implements memsim.Instance.
func (in *fixedTermInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return &announcePollFrame{
			fst: in.first[i], ann: in.present[i], annVal: 1,
			then: in.v[i], els: in.v[i],
		}, nil
	case memsim.CallSignal:
		if pid != in.sig {
			return nil, ErrWrongSignaler
		}
		return &ftSignalFrame{in: in}, nil
	default:
		return nil, ErrUnsupported
	}
}
