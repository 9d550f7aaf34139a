package signal

import (
	"repro/internal/memsim"
)

// Flag returns the Section 5 algorithm: a single global Boolean B.
// Signal() writes B := true; Poll() reads and returns B; Wait() busy-waits
// until B = true.
//
// In the CC model this is wait-free with O(1) RMRs per process using only
// atomic reads and writes. Scored under the DSM model the very same
// algorithm has unbounded RMR complexity — every access to B is remote —
// which is the other half of the paper's headline contrast (experiments E1
// and E2).
func Flag() Algorithm {
	return Algorithm{
		Name:       "flag",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, Polling: true, Blocking: true},
		Comment:    "Section 5: O(1) RMR/process wait-free in CC; unbounded RMRs in DSM",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			b := m.Alloc(memsim.NoOwner, "B", 1, 0)
			return &flagInstance{b: b, n: n}, nil
		},
	}
}

type flagInstance struct {
	b memsim.Addr
	n int
}

var _ memsim.ResumableInstance = (*flagInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *flagInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, readRetFrame{addr: in.b}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, writeOneFrame{addr: in.b, val: 1}), nil
	case memsim.CallWait:
		return memsim.BuildFrame(dst, spinNonzeroFrame{addr: in.b}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *flagInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}
