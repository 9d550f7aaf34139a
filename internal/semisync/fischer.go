package semisync

import (
	"repro/internal/memsim"
	"repro/internal/mutex"
)

// Fischer is Fischer's timed mutual-exclusion lock, the canonical use of
// knowing Δ: O(1) writes per acquisition and a single shared word.
//
//	repeat:
//	  await X = NIL
//	  X := i
//	  delay(Δ+1)          // longer than any rival's read-to-write gap
//	  until X = i
//	critical section
//	X := NIL
//
// The delay guarantees that every process that read X = NIL before our
// write has already performed its own write by the time we re-read X, so
// the last writer wins unambiguously. Under unrestricted asynchrony the
// argument collapses — a suspended rival can write X after our re-read —
// and the lock is incorrect, which TestFischerAsyncViolation demonstrates.
//
// Delay is implemented as Δ+1 reads of a scratch word in the caller's own
// memory module: each is one step, each step is one clock tick, and the
// runner's Δ-gap discipline makes every rival's pending write due within
// the delay window. The scratch reads are local in the DSM model (cached
// in CC), so delaying is RMR-free.
type Fischer struct {
	x       memsim.Addr
	scratch []memsim.Addr
	delta   int
}

var _ mutex.Lock = (*Fischer)(nil)

// NewFischer allocates the lock for n processes with the given Δ.
func NewFischer(m *memsim.Machine, n, delta int) *Fischer {
	l := &Fischer{
		x:       m.Alloc(memsim.NoOwner, "fischer.X", 1, memsim.Nil),
		scratch: make([]memsim.Addr, n),
		delta:   delta,
	}
	for i := 0; i < n; i++ {
		l.scratch[i] = m.Alloc(memsim.PID(i), "fischer.scratch", 1, 0)
	}
	return l
}

// AcquireFrame implements mutex.Lock.
func (l *Fischer) AcquireFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable {
	return memsim.BuildFrame(dst, fischerAcquireFrame{l: l, me: memsim.Value(pid), scratch: l.scratch[pid]})
}

// ReleaseFrame implements mutex.Lock: X := NIL.
func (l *Fischer) ReleaseFrame(dst memsim.Resumable, _ memsim.PID) memsim.Resumable {
	return memsim.BuildFrame(dst, fischerReleaseFrame{x: l.x})
}

// Fischer acquire frame program counters.
const (
	fischerAwait   uint8 = iota // await X = NIL
	fischerSpin                 // X read
	fischerWritten              // X := i written
	fischerDelay                // scratch read
	fischerCheck                // X re-read
)

// fischerAcquireFrame is the entry section; the delay is Δ+1 reads of
// the caller's own scratch word, counted in k.
type fischerAcquireFrame struct {
	l       *Fischer
	me      memsim.Value
	scratch memsim.Addr
	k       int
	pc      uint8
}

func (f *fischerAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case fischerAwait:
		f.pc = fischerSpin
		return memsim.AccRead(f.l.x), true
	case fischerSpin:
		if prev.Val != memsim.Nil {
			return memsim.AccRead(f.l.x), true
		}
		f.pc = fischerWritten
		return memsim.AccWrite(f.l.x, f.me), true
	case fischerWritten:
		f.k = 1
		f.pc = fischerDelay
		return memsim.AccRead(f.scratch), true
	case fischerDelay:
		if f.k <= f.l.delta {
			f.k++
			return memsim.AccRead(f.scratch), true
		}
		f.pc = fischerCheck
		return memsim.AccRead(f.l.x), true
	default:
		if prev.Val == f.me {
			return memsim.Access{}, false
		}
		f.pc = fischerSpin // lost the race: await X = NIL again
		return memsim.AccRead(f.l.x), true
	}
}

func (f *fischerAcquireFrame) Return() memsim.Value { return 0 }

func (f *fischerAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// fischerReleaseFrame is the exit section: one write of NIL to X.
type fischerReleaseFrame struct {
	x    memsim.Addr
	done bool
}

func (f *fischerReleaseFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.done {
		return memsim.Access{}, false
	}
	f.done = true
	return memsim.AccWrite(f.x, memsim.Nil), true
}

func (f *fischerReleaseFrame) Return() memsim.Value { return 0 }

func (f *fischerReleaseFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
