package mutex

import (
	"repro/internal/memsim"
)

// PetersonTournament returns a tournament lock built from two-process
// Peterson locks arranged in a binary arbitration tree: a process ascends
// its root-to-leaf path acquiring each node, O(log N) node acquisitions per
// passage, using atomic reads and writes only.
//
// In the CC model the busy-wait at each node is cached, so the lock
// realizes the Θ(log N) read/write RMR bound of Section 3 [30, 22, 10, 5].
// In the DSM model the node variables cannot be local to both contenders,
// so spinning is remote and RMRs are unbounded — the DSM-capable
// Yang–Anderson variant needs per-process spin copies, which is exactly the
// model-specific co-location technique the paper's introduction describes.
func PetersonTournament() Algorithm {
	return Algorithm{
		Name:       "peterson-tournament",
		Primitives: "read/write",
		Comment:    "Θ(log N)/passage in CC; remote spinning in DSM",
		New: func(m *memsim.Machine, n int) (Lock, error) {
			leaves := 1
			for leaves < n {
				leaves *= 2
			}
			height := 0
			for 1<<height < leaves {
				height++
			}
			nodes := leaves - 1
			if nodes < 1 {
				nodes = 1
			}
			l := &petersonLock{
				height: height,
				leaves: leaves,
				flags:  m.Alloc(memsim.NoOwner, "flag", 2*nodes, 0),
				turns:  m.Alloc(memsim.NoOwner, "turn", nodes, 0),
			}
			return l, nil
		},
	}
}

type petersonLock struct {
	height int
	leaves int
	flags  memsim.Addr // flag[2*node + side]
	turns  memsim.Addr // turn[node]
}

var _ Lock = (*petersonLock)(nil)

// node returns the global node index for process i at tree level l
// (level 0 adjoins the leaves).
func (k *petersonLock) node(i, l int) int {
	// Nodes are numbered level by level from the leaves upward.
	offset := 0
	width := k.leaves / 2
	for j := 0; j < l; j++ {
		offset += width
		width /= 2
	}
	return offset + (i >> (l + 1))
}

// AcquireFrame implements Lock: ascend the arbitration tree,
// acquiring each two-process Peterson node.
//
//	for each level l, node n, side s = bit l of i:
//	  flag[n][s] := 1; turn[n] := s
//	  await flag[n][1-s] != 1 or turn[n] != s
func (k *petersonLock) AcquireFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable {
	return memsim.BuildFrame(dst, petersonAcquireFrame{k: k, i: int(pid)})
}

// ReleaseFrame implements Lock: descend, clearing each node flag
// (flag[n][s] := 0 from the root down).
func (k *petersonLock) ReleaseFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable {
	return memsim.BuildFrame(dst, petersonReleaseFrame{k: k, i: int(pid), l: k.height - 1})
}

var _ Lock = (*petersonLock)(nil)

type petersonAcquireFrame struct {
	k  *petersonLock
	i  int
	l  int // current tree level
	pc uint8
}

func (f *petersonAcquireFrame) side() int { return (f.i >> f.l) & 1 }

func (f *petersonAcquireFrame) node() int { return f.k.node(f.i, f.l) }

func (f *petersonAcquireFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		n := f.node()
		side := f.side()
		switch f.pc {
		case 0: // level entry, or done past the root
			if f.l >= f.k.height {
				return memsim.Access{}, false
			}
			f.pc = 1
			return memsim.AccWrite(f.k.flags+memsim.Addr(2*n+side), 1), true
		case 1:
			f.pc = 2
			return memsim.AccWrite(f.k.turns+memsim.Addr(n), memsim.Value(side)), true
		case 2: // spin head: read the rival's flag
			f.pc = 3
			return memsim.AccRead(f.k.flags + memsim.Addr(2*n+(1-side))), true
		case 3: // rival flag read (short-circuit of the && condition)
			if prev.Val != 1 {
				f.l++
				f.pc = 0
				continue // level acquired
			}
			f.pc = 4
			return memsim.AccRead(f.k.turns + memsim.Addr(n)), true
		default: // turn read
			if prev.Val != memsim.Value(side) {
				f.l++
				f.pc = 0
				continue // level acquired
			}
			f.pc = 3
			return memsim.AccRead(f.k.flags + memsim.Addr(2*n+(1-side))), true
		}
	}
}

func (f *petersonAcquireFrame) Return() memsim.Value { return 0 }

func (f *petersonAcquireFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

type petersonReleaseFrame struct {
	k *petersonLock
	i int
	l int // current tree level, descending
}

func (f *petersonReleaseFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.l < 0 {
		return memsim.Access{}, false
	}
	n := f.k.node(f.i, f.l)
	side := (f.i >> f.l) & 1
	f.l--
	return memsim.AccWrite(f.k.flags+memsim.Addr(2*n+side), 0), true
}

func (f *petersonReleaseFrame) Return() memsim.Value { return 0 }

func (f *petersonReleaseFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
