// Package election implements the leader-election substrates Section 7
// invokes: "leader election can be solved ... in one step per process using
// virtually any read-modify-write primitive", and with reads and writes
// only via splitter-style constructions. The blocking signaling solution
// (signal.LeaderBlocking) reduces "many waiters" to "single waiter" through
// exactly such an election. Both substrates run as resumable frames that
// callers embed in their own frames.
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

// Splitter is Lamport's read/write splitter: at most one process "wins",
// but processes may also lose or learn nothing — unlike Election, losers do
// not learn the winner. It demonstrates what reads and writes alone buy:
// safety (at most one winner) without the naming guarantee the blocking
// reduction needs, which is why LeaderBlocking uses the CAS election.
type Splitter struct {
	x memsim.Addr // candidate ID
	y memsim.Addr // door flag
}

// SplitterOutcome classifies a splitter traversal.
type SplitterOutcome uint8

// Splitter outcomes.
const (
	// SplitWin means the process acquired the splitter exclusively.
	SplitWin SplitterOutcome = iota + 1
	// SplitLose means some other process may have won.
	SplitLose
)

// NewSplitter allocates a splitter on m.
func NewSplitter(m *memsim.Machine, name string) *Splitter {
	return &Splitter{
		x: m.Alloc(memsim.NoOwner, name+".x", 1, memsim.Nil),
		y: m.Alloc(memsim.NoOwner, name+".y", 1, 0),
	}
}

// Run returns pid's splitter traversal, which returns its
// SplitterOutcome. At most one process can win.
//
//	X := p; if Y { lose }; Y := true; if X = p { win } else { lose }
func (s *Splitter) Run(pid memsim.PID) *SplitterFrame {
	return &SplitterFrame{s: s, me: memsim.Value(pid)}
}

// SplitterFrame is the resumable form of one splitter traversal.
type SplitterFrame struct {
	s   *Splitter
	me  memsim.Value
	pc  uint8
	ret SplitterOutcome
}

var _ memsim.Resumable = (*SplitterFrame)(nil)

// Next implements memsim.Resumable.
func (f *SplitterFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	switch f.pc {
	case 0:
		f.pc = 1
		return memsim.AccWrite(f.s.x, f.me), true
	case 1:
		f.pc = 2
		return memsim.AccRead(f.s.y), true
	case 2: // door read: closed means lose
		if prev.Val != 0 {
			f.pc, f.ret = 5, SplitLose
			return memsim.Access{}, false
		}
		f.pc = 3
		return memsim.AccWrite(f.s.y, 1), true
	case 3:
		f.pc = 4
		return memsim.AccRead(f.s.x), true
	case 4:
		f.pc, f.ret = 5, SplitLose
		if prev.Val == f.me {
			f.ret = SplitWin
		}
	}
	return memsim.Access{}, false
}

// Return implements memsim.Resumable: the SplitterOutcome.
func (f *SplitterFrame) Return() memsim.Value { return memsim.Value(f.ret) }

// AppendState appends f's canonical state for engine state keys.
func (f *ElectFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.leader))
	dst = binary.AppendVarint(dst, int64(f.me))
	dst = append(dst, f.pc)
	return binary.AppendVarint(dst, int64(f.ret))
}
