package mutex

import (
	"repro/internal/memsim"
)

// TAS returns the test-and-set spin lock: processes loop on TAS(flag) until
// they win. Every retry is an interconnect operation, so RMR complexity per
// passage is unbounded under contention in both the CC and DSM models —
// the classic motivation for local-spin algorithms [4, 28].
func TAS() Algorithm {
	return Algorithm{
		Name:       "tas",
		Primitives: "read/write/TAS",
		Comment:    "unbounded RMRs under contention in both models",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			return &tasLock{flag: m.Alloc(memsim.NoOwner, "lock", 1, 0)}, nil
		},
	}
}

type tasLock struct {
	flag memsim.Addr
}

var _ Lock = (*tasLock)(nil)

// AcquireFrame implements Lock: loop on TAS(flag) until it wins.
func (l *tasLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &tasAcquireFrame{flag: l.flag}
}

// ReleaseFrame implements Lock.
func (l *tasLock) ReleaseFrame(memsim.PID) memsim.Resumable {
	return &writeFrame{addr: l.flag, val: 0}
}

type tasAcquireFrame struct {
	flag memsim.Addr
	pc   uint8
}

func (f *tasAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.pc == 1 && prev.OK {
		return memsim.Access{}, false
	}
	f.pc = 1
	return memsim.AccTAS(f.flag), true
}

func (f *tasAcquireFrame) Return() memsim.Value { return 0 }

func (f *tasAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// writeFrame performs one write — the release section of the simple locks.
type writeFrame struct {
	addr memsim.Addr
	val  memsim.Value
	pc   uint8
}

func (f *writeFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 1 {
		return memsim.Access{}, false
	}
	f.pc = 1
	return memsim.AccWrite(f.addr, f.val), true
}

func (f *writeFrame) Return() memsim.Value { return 0 }

func (f *writeFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// TTAS returns the test-and-test-and-set lock: spin reading the flag until
// it appears free, then attempt TAS. In the CC model the read spin is
// cached, so steady-state waiting is local and RMRs are incurred only on
// invalidations (still Θ(contenders) per release); in the DSM model the
// spin is remote and RMR complexity remains unbounded.
func TTAS() Algorithm {
	return Algorithm{
		Name:       "ttas",
		Primitives: "read/write/TAS",
		Comment:    "cached spinning in CC; unbounded RMRs in DSM",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			return &ttasLock{flag: m.Alloc(memsim.NoOwner, "lock", 1, 0)}, nil
		},
	}
}

type ttasLock struct {
	flag memsim.Addr
}

var _ Lock = (*ttasLock)(nil)

// AcquireFrame implements Lock: read-spin until the flag appears
// free, then attempt TAS; on failure, back to the read spin.
func (l *ttasLock) AcquireFrame(memsim.PID) memsim.Resumable {
	return &ttasAcquireFrame{flag: l.flag}
}

// ReleaseFrame implements Lock.
func (l *ttasLock) ReleaseFrame(memsim.PID) memsim.Resumable {
	return &writeFrame{addr: l.flag, val: 0}
}

type ttasAcquireFrame struct {
	flag memsim.Addr
	pc   uint8
}

func (f *ttasAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0: // enter the read spin
		f.pc = 1
		return memsim.AccRead(f.flag), true
	case 1: // read result
		if prev.Val != 0 {
			return memsim.AccRead(f.flag), true
		}
		f.pc = 2
		return memsim.AccTAS(f.flag), true
	default: // TAS result
		if prev.OK {
			return memsim.Access{}, false
		}
		f.pc = 1
		return memsim.AccRead(f.flag), true
	}
}

func (f *ttasAcquireFrame) Return() memsim.Value { return 0 }

func (f *ttasAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
