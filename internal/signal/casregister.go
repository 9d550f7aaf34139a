package signal

import (
	"encoding/binary"

	"repro/internal/memsim"
	"repro/internal/primsim"
)

// CASRegister returns a signaling algorithm for the hardest variant (many
// waiters and signaler, none fixed in advance) that uses reads, writes and
// CAS only — the primitive set of Corollary 6.14. Waiters register by
// CAS-claiming the first free slot of a global array; the signaler scans
// the registered prefix.
//
//	Poll() by p_i, first call:  j := min j with CAS(Q[j], NIL, i); return S
//	Poll() by p_i, later calls: return V[i] (local)
//	Signal():                   S := true; for j until Q[j] = NIL: V[Q[j]] := true
//
// The k-th registrant pays O(k) RMRs, so the algorithm is correct and
// terminating but — as Theorem 6.2/Corollary 6.14 mandates — not O(1)
// amortized. The direct adversary is conservative on same-variable CAS
// pile-ups and may fail to exhibit the blow-up; the corollary's own route
// is CASRegisterRW, the read/write transformation of this algorithm, which
// the adversary defeats (experiment E4).
func CASRegister() Algorithm {
	return Algorithm{
		Name:       "cas-register",
		Primitives: "read/write/CAS",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Corollary 6.14 subject: CAS slot registration; O(k) registrant cost",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &casRegisterInstance{
				s:   m.Alloc(memsim.NoOwner, "S", 1, 0),
				q:   m.Alloc(memsim.NoOwner, "Q", n, memsim.Nil),
				n:   n,
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

type casRegisterInstance struct {
	s   memsim.Addr
	q   memsim.Addr
	n   int
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.ResumableInstance = (*casRegisterInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *casRegisterInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, casPollFrame{in: in, i: i}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, slotScanSignalFrame{s: in.s, q: in.q, n: in.n, v: in.v}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *casRegisterInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}

// CASRegisterRW returns the Corollary 6.14 transformation of CASRegister:
// every CAS is replaced by the read/write emulation of internal/primsim,
// so the whole algorithm uses atomic reads and writes only. Every emulated
// operation incurs RMRs (lock traffic), which restores the leverage the
// lower-bound adversary needs: the per-round counting argument defeats
// this algorithm even though it conservatively spares the native-CAS
// version.
func CASRegisterRW() Algorithm {
	return Algorithm{
		Name:       "cas-register-rw",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Corollary 6.14 transformation: CASRegister with CAS emulated from reads/writes",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			q, err := primsim.NewEmuCASArray(m, n, n, "Q", memsim.Nil)
			if err != nil {
				return nil, err
			}
			in := &casRegisterRWInstance{
				s:   m.Alloc(memsim.NoOwner, "S", 1, 0),
				q:   q,
				n:   n,
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

type casRegisterRWInstance struct {
	s   memsim.Addr
	q   *primsim.EmuCASArray
	n   int
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.ResumableInstance = (*casRegisterRWInstance)(nil)

// ProgramInto implements memsim.Instance. An emulated read is one atomic
// read of the word, so Signal is cas-register's slot scan over the
// emulated array. Poll keeps dst's emulated-CAS storage.
func (in *casRegisterRWInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		d := memsim.CloneTarget[casRWPollFrame](dst)
		*d = casRWPollFrame{in: in, i: int(pid), cas: d.cas.Pristine()}
		return d, nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, slotScanSignalFrame{s: in.s, q: in.q.Addr(0), n: in.n, v: in.v}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *casRegisterRWInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}

// casRWPollFrame is cas-register's Poll with every CAS run as the
// read/write emulation's locked read-modify-write (a primsim.Frame):
//
//	Poll() by p_i, first call:  first := 0; j := min j with EmuCAS(Q[j], NIL, i); return S
//	Poll() by p_i, later calls: return V[i]
type casRWPollFrame struct {
	in  *casRegisterRWInstance
	i   int
	j   int
	cas primsim.Frame
	pc  uint8
	ret memsim.Value
}

func (f *casRWPollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			return memsim.AccRead(f.in.fst[f.i]), true
		case 1:
			if prev.Val == 1 {
				f.pc = 2
				return memsim.AccWrite(f.in.fst[f.i], 0), true
			}
			f.pc = 4
			return memsim.AccRead(f.in.v[f.i]), true
		case 2: // slot scan loop head: start the emulated CAS on Q[j]
			if f.j >= f.in.n {
				f.pc = 4
				return memsim.AccRead(f.in.s), true
			}
			f.in.q.CAS(&f.cas, memsim.PID(f.i), f.j, memsim.Nil, memsim.Value(f.i))
			f.pc = 3
			prev = memsim.Result{}
		case 3: // drive the emulated CAS
			if acc, ok := f.cas.Next(prev); ok {
				return acc, true
			}
			if f.cas.Return() == 1 {
				f.pc = 4
				return memsim.AccRead(f.in.s), true
			}
			f.j++
			f.pc = 2
		default:
			f.ret = prev.Val
			return memsim.Access{}, false
		}
	}
}

func (f *casRWPollFrame) Return() memsim.Value { return f.ret }

// CloneInto implements memsim.Resumable: the emulated CAS's lock sections
// are copied, not shared, into dst's lock section storage.
func (f *casRWPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[casRWPollFrame](dst)
	cas := d.cas
	*d = *f
	d.cas = cas
	f.cas.CloneInto(&d.cas)
	return d
}

// AppendState implements memsim.StateAppender: the emulated CAS encodes
// its lock section only in its phase.
func (f *casRWPollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.i))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = append(dst, f.pc)
	dst = binary.AppendVarint(dst, int64(f.ret))
	return f.cas.AppendState(dst)
}

var _ memsim.StateAppender = (*casRWPollFrame)(nil)
