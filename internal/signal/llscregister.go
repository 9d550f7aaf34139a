package signal

import (
	"encoding/binary"

	"repro/internal/memsim"
	"repro/internal/primsim"
)

// LLSCRegister returns a signaling algorithm for the hardest variant that
// uses reads, writes and LL/SC — the other primitive pair Corollary 6.14
// covers. Waiters claim the first free slot of a global array with an
// LL/SC pair; the signaler scans the registered prefix.
//
//	Poll() by p_i, first call:  find min j with LL(Q[j]) = NIL and
//	                            SC(Q[j], i) successful; return S
//	Poll() by p_i, later calls: return V[i] (local)
//	Signal():                   S := true; for j until Q[j] = NIL: V[Q[j]] := true
//
// A failed SC means another registrant claimed the slot between the LL and
// the SC; the waiter retries the same slot (it may now be occupied, in
// which case the LL sees non-NIL and the scan advances). Like CASRegister,
// the k-th registrant pays O(k) RMRs — consistent with the theorem denying
// read/write/LL-SC algorithms O(1) amortized cost.
func LLSCRegister() Algorithm {
	return Algorithm{
		Name:       "llsc-register",
		Primitives: "read/write/LL-SC",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Corollary 6.14 subject: LL/SC slot registration; O(k) registrant cost",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &llscRegisterInstance{
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

type llscRegisterInstance struct {
	s   memsim.Addr
	q   memsim.Addr
	n   int
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.ResumableInstance = (*llscRegisterInstance)(nil)

// ProgramInto implements memsim.Instance.
func (in *llscRegisterInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	i := int(pid)
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, llscPollFrame{in: in, i: i}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, slotScanSignalFrame{s: in.s, q: in.q, n: in.n, v: in.v}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *llscRegisterInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}

// LLSCRegisterRW returns the Corollary 6.14 transformation of LLSCRegister:
// LL/SC replaced by the read/write emulation of internal/primsim. Every
// emulated operation incurs lock-traffic RMRs, so the lower-bound adversary
// defeats this version (experiment E4's LL/SC leg).
func LLSCRegisterRW() Algorithm {
	return Algorithm{
		Name:       "llsc-register-rw",
		Primitives: "read/write",
		Variant:    Variant{Waiters: -1, Polling: true},
		Comment:    "Corollary 6.14 transformation: LLSCRegister with LL/SC emulated from reads/writes",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &llscRegisterRWInstance{
				s:   m.Alloc(memsim.NoOwner, "S", 1, 0),
				q:   make([]*primsim.EmuLLSC, n),
				n:   n,
				v:   make([]memsim.Addr, n),
				fst: make([]memsim.Addr, n),
			}
			for j := 0; j < n; j++ {
				w, err := primsim.NewEmuLLSC(m, n, "Q", memsim.Nil)
				if err != nil {
					return nil, err
				}
				in.q[j] = w
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

type llscRegisterRWInstance struct {
	s   memsim.Addr
	q   []*primsim.EmuLLSC
	n   int
	v   []memsim.Addr
	fst []memsim.Addr
}

var _ memsim.ResumableInstance = (*llscRegisterRWInstance)(nil)

// ProgramInto implements memsim.Instance. Poll keeps dst's emulated
// LL/SC storage.
func (in *llscRegisterRWInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		d := memsim.CloneTarget[llscRWPollFrame](dst)
		*d = llscRWPollFrame{in: in, i: int(pid), op: d.op.Pristine()}
		return d, nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, llscRWSignalFrame{in: in}), nil
	default:
		return nil, ErrUnsupported
	}
}

// ResumableProgram implements memsim.ResumableInstance.
func (in *llscRegisterRWInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	return in.ProgramInto(nil, pid, kind)
}

// llscRWPollFrame is llsc-register's Poll with LL and SC run as the
// read/write emulation's locked operations (a primsim.Frame):
//
//	Poll() by p_i, first call:  first := 0
//	                            for j < n: if EmuLL(Q[j]) != NIL { j++ }
//	                                       else if EmuSC(Q[j], i) { break }
//	                            return S
//	Poll() by p_i, later calls: return V[i]
type llscRWPollFrame struct {
	in  *llscRegisterRWInstance
	i   int
	j   int
	op  primsim.Frame
	pc  uint8
	ret memsim.Value
}

func (f *llscRWPollFrame) Next(prev memsim.Result) (memsim.Access, bool) {
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
			f.pc = 5
			return memsim.AccRead(f.in.v[f.i]), true
		case 2: // claim loop head: start the emulated LL of Q[j]
			if f.j >= f.in.n {
				f.pc = 5
				return memsim.AccRead(f.in.s), true
			}
			f.in.q[f.j].LL(&f.op, memsim.PID(f.i))
			f.pc = 3
			prev = memsim.Result{}
		case 3: // drive the LL; a taken slot advances the scan
			if acc, ok := f.op.Next(prev); ok {
				return acc, true
			}
			if f.op.Return() != memsim.Nil {
				f.j++
				f.pc = 2
				continue
			}
			f.in.q[f.j].SC(&f.op, memsim.PID(f.i), memsim.Value(f.i))
			f.pc = 4
			prev = memsim.Result{}
		case 4: // drive the SC; a lost race re-examines the same slot
			if acc, ok := f.op.Next(prev); ok {
				return acc, true
			}
			if f.op.Return() == 1 {
				f.pc = 5
				return memsim.AccRead(f.in.s), true
			}
			f.pc = 2
		default:
			f.ret = prev.Val
			return memsim.Access{}, false
		}
	}
}

func (f *llscRWPollFrame) Return() memsim.Value { return f.ret }

// CloneInto implements memsim.Resumable: the emulated operation's lock
// sections are copied, not shared, into dst's lock section storage.
func (f *llscRWPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[llscRWPollFrame](dst)
	op := d.op
	*d = *f
	d.op = op
	f.op.CloneInto(&d.op)
	return d
}

// AppendState implements memsim.StateAppender: the emulated operation
// encodes its lock section only in its phase.
func (f *llscRWPollFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.i))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = append(dst, f.pc)
	dst = binary.AppendVarint(dst, int64(f.ret))
	return f.op.AppendState(dst)
}

// llscRWSignalFrame is llsc-register's Signal over the emulated words; an
// emulated read is one atomic read of the word.
//
//	Signal(): S := true; for j until Q[j] = NIL: V[Q[j]] := true
type llscRWSignalFrame struct {
	in *llscRegisterRWInstance
	j  int
	pc uint8
}

func (f *llscRWSignalFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccWrite(f.in.s, 1), true
	case 1: // scan loop head
		if f.j >= f.in.n {
			return memsim.Access{}, false
		}
		f.pc = 2
		return memsim.AccRead(f.in.q[f.j].Addr()), true
	default: // slot read
		if prev.Val == memsim.Nil {
			return memsim.Access{}, false
		}
		f.j++
		f.pc = 1
		return memsim.AccWrite(f.in.v[prev.Val], 1), true
	}
}

func (f *llscRWSignalFrame) Return() memsim.Value { return 0 }

func (f *llscRWSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *llscRWSignalFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.j))
	return append(dst, f.pc)
}

var (
	_ memsim.StateAppender = (*llscRWPollFrame)(nil)
	_ memsim.StateAppender = (*llscRWSignalFrame)(nil)
)
