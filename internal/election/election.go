// Package election implements the leader election Section 7 invokes:
// "leader election can be solved ... in one step per process using
// virtually any read-modify-write primitive". The blocking signaling
// solution (signal.LeaderBlocking) reduces "many waiters" to "single
// waiter" through exactly such an election, a CAS one that runs as a
// resumable frame callers embed in their own frames.
package election

import (
	"encoding/binary"

	"repro/internal/memsim"
)

// Election is a one-shot leader election: every participant learns the
// winner's ID (not merely whether it won), the property the paper requires
// for the blocking reduction.
type Election struct {
	leader memsim.Addr
}

// New allocates an election object on m.
func New(m *memsim.Machine, name string) *Election {
	return &Election{leader: m.Alloc(memsim.NoOwner, name+".leader", 1, memsim.Nil)}
}

// Elect returns pid's election step, which returns the leader's ID: one
// CAS, plus one read for losers. O(1) RMRs in both models.
//
//	if CAS(L, NIL, p) { return p }; return read(L)
func (e *Election) Elect(pid memsim.PID) ElectFrame {
	return ElectFrame{leader: e.leader, me: memsim.Value(pid)}
}

// ElectFrame is the resumable form of one process's election step.
type ElectFrame struct {
	leader memsim.Addr
	me     memsim.Value
	pc     uint8
	ret    memsim.Value
}

var _ memsim.Resumable = (*ElectFrame)(nil)

// Next implements memsim.Resumable.
func (f *ElectFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccCAS(f.leader, memsim.Nil, f.me), true
	case 1: // CAS result: won, or read the winner
		if prev.OK {
			f.pc, f.ret = 3, f.me
			return memsim.Access{}, false
		}
		f.pc = 2
		return memsim.AccRead(f.leader), true
	case 2:
		f.pc, f.ret = 3, prev.Val
	}
	return memsim.Access{}, false
}

// Return implements memsim.Resumable: the leader's ID.
func (f *ElectFrame) Return() memsim.Value { return f.ret }

// CloneInto implements memsim.Resumable.
func (f *ElectFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// AppendState appends f's canonical state for engine state keys.
func (f *ElectFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.leader))
	dst = binary.AppendVarint(dst, int64(f.me))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}
