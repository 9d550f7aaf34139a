package signal

import (
	"encoding/binary"

	"repro/internal/election"
	"repro/internal/memsim"
)

// LeaderBlocking returns the Section 7 blocking-semantics solution for
// "many waiters not fixed in advance, one signaler not fixed in advance":
// the waiters elect a leader; the leader runs the single-waiter protocol
// against the signaler and then propagates the signal to every registered
// follower. Followers spin only on a flag in their own memory module.
//
//	Wait() by p_i:
//	  if CAS(L, NIL, i) succeeded or L = i:            // leader
//	    W := i; if !S { spin on V[i] (local) }         // single-waiter wait
//	    Done := true
//	    for each j: if Reg[j] { F[j] := true }         // propagate
//	  else:                                            // follower
//	    Reg[i] := true
//	    if Done { return }
//	    spin on F[i] (local)
//	Signal():
//	  S := true; w := W; if w != NIL { V[w] := true }
//
// Setting Done before scanning the registrations closes the race with
// followers that register during propagation: a follower that the scan
// misses necessarily reads Done = true. Followers and signalers incur O(1)
// RMRs worst-case; the leader incurs O(N) (the paper's read/write-only
// O(1)-per-process construction via [12] is out of scope here).
func LeaderBlocking() Algorithm {
	return Algorithm{
		Name:       "leader-blocking",
		Primitives: "read/write/CAS",
		Variant:    Variant{Waiters: -1, Blocking: true},
		Comment:    "Section 7 blocking: follower O(1), leader O(N); reduction to single waiter",
		New: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			in := &leaderInstance{
				elect: election.New(m, "L"),
				w:     m.Alloc(memsim.NoOwner, "W", 1, memsim.Nil),
				s:     m.Alloc(memsim.NoOwner, "S", 1, 0),
				done:  m.Alloc(memsim.NoOwner, "Done", 1, 0),
				reg:   m.Alloc(memsim.NoOwner, "Reg", n, 0),
				v:     make([]memsim.Addr, n),
				f:     make([]memsim.Addr, n),
			}
			for i := 0; i < n; i++ {
				pid := memsim.PID(i)
				in.v[i] = m.Alloc(pid, "V", 1, 0)
				in.f[i] = m.Alloc(pid, "F", 1, 0)
			}
			return in, nil
		},
	}
}

type leaderInstance struct {
	elect *election.Election
	w     memsim.Addr
	s     memsim.Addr
	done  memsim.Addr
	reg   memsim.Addr
	v     []memsim.Addr
	f     []memsim.Addr
}

var _ memsim.Instance = (*leaderInstance)(nil)

// ResumableProgram implements memsim.Instance. Signal is the
// single-waiter Signal against the elected leader's announcement.
func (in *leaderInstance) ResumableProgram(pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallWait:
		return &leaderWaitFrame{in: in, i: int(pid), elect: in.elect.Elect(pid)}, nil
	case memsim.CallSignal:
		return &swSignalFrame{s: in.s, w: in.w, v: in.v}, nil
	default:
		return nil, ErrUnsupported
	}
}

// leaderWaitFrame is LeaderBlocking's Wait: the election step (an
// election.ElectFrame), then the leader's or the follower's branch.
//
//	if Elect() = i:                       // leader
//	  W := i; if !S { spin on V[i] }
//	  Done := true
//	  for each j ≠ i: if Reg[j] { F[j] := true }
//	else:                                 // follower
//	  Reg[i] := true; if Done { return }; spin on F[i]
type leaderWaitFrame struct {
	in    *leaderInstance
	i     int
	j     int
	elect election.ElectFrame
	pc    uint8
}

func (f *leaderWaitFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0: // enter the election step
			acc, _ := f.elect.Next(memsim.Result{})
			f.pc = 1
			return acc, true
		case 1: // drive the election step, then branch
			if acc, ok := f.elect.Next(prev); ok {
				return acc, true
			}
			if f.elect.Return() == memsim.Value(f.i) {
				f.pc = 2
				return memsim.AccWrite(f.in.w, memsim.Value(f.i)), true
			}
			f.pc = 7
			return memsim.AccWrite(f.in.reg+memsim.Addr(f.i), 1), true
		case 2: // leader: W announced; check S
			f.pc = 3
			return memsim.AccRead(f.in.s), true
		case 3: // leader: S read, or local spin on V[i]
			if prev.Val == 0 {
				return memsim.AccRead(f.in.v[f.i]), true
			}
			f.pc = 4
			return memsim.AccWrite(f.in.done, 1), true
		case 4: // leader: propagation loop head
			if f.j == f.i {
				f.j++
			}
			if f.j >= len(f.in.f) {
				return memsim.Access{}, false
			}
			f.pc = 5
			return memsim.AccRead(f.in.reg + memsim.Addr(f.j)), true
		case 5: // leader: Reg[j] read
			f.pc = 4
			if prev.Val == 1 {
				f.pc = 6
				return memsim.AccWrite(f.in.f[f.j], 1), true
			}
			f.j++
		case 6: // leader: F[j] written
			f.j++
			f.pc = 4
		case 7: // follower: registered; check Done
			f.pc = 8
			return memsim.AccRead(f.in.done), true
		case 8: // follower: Done read
			if prev.Val == 1 {
				return memsim.Access{}, false
			}
			f.pc = 9
			return memsim.AccRead(f.in.f[f.i]), true
		default: // follower: local spin on F[i]
			if prev.Val == 0 {
				return memsim.AccRead(f.in.f[f.i]), true
			}
			return memsim.Access{}, false
		}
	}
}

func (f *leaderWaitFrame) Return() memsim.Value { return 0 }

func (f *leaderWaitFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *leaderWaitFrame) AppendState(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(f.i))
	dst = binary.AppendVarint(dst, int64(f.j))
	dst = append(dst, f.pc)
	return f.elect.AppendState(dst)
}

var _ memsim.StateAppender = (*leaderWaitFrame)(nil)
