package signal

import (
	"repro/internal/memsim"
	"repro/internal/queue"
)

// MultiSignaler returns the final Section 7 variant: many waiters AND many
// signalers, none fixed in advance. Signalers elect a leader with one
// Test-And-Set step ("virtually any read-modify-write primitive" suffices,
// §7); the winner runs the F&I queue protocol and then raises a Done flag;
// losing signalers busy-wait on Done so that any *completed* Signal call —
// winner or loser — guarantees delivery, as clause 2 of Specification 4.1
// requires.
//
//	Poll() by p_i, first call:  register in the F&I queue; return S
//	Poll() by p_i, later calls: return V[i] (local)
//	Signal():                   if TAS(E) { S := true; flag every
//	                            registered waiter; Done := true }
//	                            else { await Done }
//
// Waiters pay O(1) RMRs worst-case; the elected signaler O(k); losing
// signalers are terminating (not wait-free: they wait for the winner).
func MultiSignaler() Algorithm {
	return Algorithm{
		Name:       "multi-signaler",
		Primitives: "read/write/TAS/FAA",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Section 7: many signalers reduced to one by TAS election",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &multiSignalerInstance{
				elect: m.Alloc(memsim.NoOwner, "E", 1, 0),
				done:  m.Alloc(memsim.NoOwner, "Done", 1, 0),
				s:     m.Alloc(memsim.NoOwner, "S", 1, 0),
				reg:   queue.NewRegistry(m, n, "Q"),
				v:     make([]memsim.Addr, n),
				fst:   make([]memsim.Addr, n),
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

type multiSignalerInstance struct {
	elect memsim.Addr
	done  memsim.Addr
	s     memsim.Addr
	reg   *queue.Registry
	v     []memsim.Addr
	fst   []memsim.Addr
}

var _ memsim.ResumableInstance = (*multiSignalerInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *multiSignalerInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return registerPollInto(dst, in.fst[i], in.v[i], in.s, in.reg, memsim.Value(i)), nil
	case memsim.CallSignal:
		d := memsim.CloneTarget[msSignalFrame](dst)
		*d = msSignalFrame{in: in, deliver: *registrySignalInto(&d.deliver, in.s, in.v, in.reg)}
		return d, nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *multiSignalerInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}
