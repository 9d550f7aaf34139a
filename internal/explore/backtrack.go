package explore

import (
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// The backtracking engines walk the schedule tree on the node-expansion
// core (internal/engine): one live execution per worker, process state in
// resumable frames copied into each tree node's snapshot and back, shared
// memory wound back through the machine's undo log, so moving to a
// sibling schedule retracts one decision instead of replaying the prefix.
// With dedup enabled, a canonical hash of (machine words, LL
// reservations, frames, pending calls, script progress, monitor bits)
// claims each (state, remaining depth budget) pair exactly once across all
// workers; later arrivals prune their subtree.
//
// What the explorer adds to the core is the monitor below. It emits
// exactly the events the Controller would: its call bookkeeping and
// sequence numbering replicate memsim.Controller and engine.Driver's
// drive loop, which the engine-equivalence tests pin down (same Paths,
// Truncated and Check outcomes as a replay enumeration on memsim.Execution
// when dedup is off).

// monitor is the explorer's policy on the core: the event log the Check
// runs on, per-process call numbers, the applied choices' descriptions
// for failure reports, and the Specification 4.1 monitor bits. The core
// is embedded, so a worker drives the monitor as its engine.
type monitor struct {
	*engine.Core

	events []memsim.Event
	seq    int
	procs  []monProc
	desc   []string    // applied choices, for failure reports
	descs  [][4]string // per pid: step, start, crash, lost-CAS descriptions

	// Specification-monitor bits: the prefix facts Specification 4.1's
	// checker conditions on, folded into the dedup key so that two states
	// merge only when their spec-relevant pasts agree (a poll that began
	// after the first completed Signal must never merge with one that
	// began before it — "poll-false" distinguishes them).
	sigStarted bool // some Signal call has begun
	sigEnded   bool // some Signal call has completed
}

// monProc is the monitor's per-process state.
type monProc struct {
	calls       int  // calls started, numbering the trace's CallSeq
	afterSigEnd bool // the open call began after the first Signal completed
}

// monitorMark is the monitor's part of a node snapshot.
type monitorMark struct {
	events, seq, desc    int
	sigStarted, sigEnded bool
	procs                []monProc
}

func newMonitor(cfg Config) (*monitor, error) {
	x := &monitor{
		procs: make([]monProc, cfg.N),
		descs: make([][4]string, cfg.N),
	}
	for pid := range x.descs {
		x.descs[pid] = [4]string{
			fmt.Sprintf("p%d", pid), fmt.Sprintf("p%d+", pid),
			fmt.Sprintf("p%d!", pid), fmt.Sprintf("p%d?", pid),
		}
	}
	core, err := engine.New(engine.Config{
		Name: "explore", Factory: cfg.Factory, N: cfg.N, Scripts: cfg.Scripts, Faults: cfg.Faults,
	}, func(*engine.Core) (engine.Policy, error) { return x, nil })
	if err != nil {
		return nil, err
	}
	x.Core = core
	return x, nil
}

func (x *monitor) emit(ev memsim.Event) {
	ev.Seq = x.seq
	x.seq++
	x.events = append(x.events, ev)
}

func (x *monitor) Started(p memsim.PID, kind memsim.CallKind) {
	x.procs[p].afterSigEnd = x.sigEnded
	if kind == memsim.CallSignal {
		x.sigStarted = true
	}
	x.emit(memsim.Event{Kind: memsim.EvCallStart, PID: p, CallSeq: x.procs[p].calls, Proc: kind.String()})
	x.procs[p].calls++
	x.desc = append(x.desc, x.descs[p][1])
}

func (x *monitor) Accessed(p memsim.PID, acc memsim.Access, res memsim.Result, fault memsim.FaultKind) {
	x.emit(memsim.Event{
		Kind: memsim.EvAccess, PID: p, CallSeq: x.procs[p].calls - 1,
		Proc: x.Kind(p).String(), Acc: acc, Res: res, Fault: fault,
	})
	if fault == memsim.FaultLostCAS {
		x.desc = append(x.desc, x.descs[p][3])
	} else {
		x.desc = append(x.desc, x.descs[p][0])
	}
}

func (x *monitor) Ended(p memsim.PID) {
	kind := x.Kind(p)
	x.emit(memsim.Event{
		Kind: memsim.EvCallEnd, PID: p, CallSeq: x.procs[p].calls - 1,
		Proc: kind.String(), Ret: x.Ret(p),
	})
	if kind == memsim.CallSignal {
		x.sigEnded = true
	}
}

// Crashed mirrors Controller.Crash: the call count rewinds so the
// restart reuses the abandoned call's CallSeq.
func (x *monitor) Crashed(p memsim.PID) {
	x.procs[p].calls--
	x.emit(memsim.Event{
		Kind: memsim.EvCrash, PID: p, CallSeq: x.procs[p].calls,
		Proc: x.Kind(p).String(), Fault: memsim.FaultCrash,
	})
	x.desc = append(x.desc, x.descs[p][2])
}

func (x *monitor) SaveState(spare any) any {
	m, _ := spare.(*monitorMark)
	if m == nil {
		m = &monitorMark{procs: make([]monProc, len(x.procs))}
	}
	m.events, m.seq, m.desc = len(x.events), x.seq, len(x.desc)
	m.sigStarted, m.sigEnded = x.sigStarted, x.sigEnded
	copy(m.procs, x.procs)
	return m
}

func (x *monitor) RestoreState(saved any) {
	m := saved.(*monitorMark)
	x.events, x.seq, x.desc = x.events[:m.events], m.seq, x.desc[:m.desc]
	x.sigStarted, x.sigEnded = m.sigStarted, m.sigEnded
	copy(x.procs, m.procs)
}

// AppendKeyHead adds the global monitor bits: two states with different
// spec-relevant pasts must never merge.
func (x *monitor) AppendKeyHead(b []byte) []byte {
	return append(b, engine.BoolBit(x.sigStarted)|engine.BoolBit(x.sigEnded)<<1)
}

// AppendKeyProc adds p's afterSigEnd latch (while a call is open) and its
// call count.
func (x *monitor) AppendKeyProc(b []byte, p memsim.PID) []byte {
	b = append(b, engine.BoolBit(x.Phase(p) != engine.Idle && x.procs[p].afterSigEnd))
	return binary.AppendUvarint(b, uint64(x.procs[p].calls))
}

func (x *monitor) AppendKeyTail(b []byte) []byte { return b }

// StartCommutes is the explorer's rule for pairs involving a call start.
// Besides memory effects, the pair must preserve the event orderings
// Specification 4.1 conditions on: a Signal's start against a Poll-true
// or Wait completion (poll-true/wait-return), and a Signal's completion
// against any call start (the poll-false rule and the afterSigEnd latch
// in the key). Steps never order against other calls' starts (those
// starts are in the common past), so only the rules below matter:
//
//	(i)   two call starts commute — each touches only its own process, and
//	      no spec rule orders two starts against each other;
//	(ii)  a Signal start is dependent with every step: the step might
//	      complete its call (a Poll returning true or a Wait must not have
//	      its completion swapped across the Signal's start, and a
//	      completing Signal orders against any start), which is unknowable
//	      before applying it — a non-Signal start commutes with a step
//	      unless the step's process is inside a Signal;
//	(iii) a step that completed its call is dependent with a start when the
//	      spec orders that completion against it: a completed Signal with
//	      every start, a completed Wait or true-returning Poll with a
//	      Signal start (the start's kind is the process's next scripted
//	      call, known exactly).
func (x *monitor) StartCommutes(u, c engine.Choice) bool {
	if c.Start {
		if u.Start {
			return true
		}
		if x.Kind(c.PID) == memsim.CallSignal {
			return false
		}
		return x.Kind(u.PID) != memsim.CallSignal
	}
	if x.Phase(c.PID) != engine.Done {
		return true
	}
	switch x.Kind(c.PID) {
	case memsim.CallSignal:
		return false
	case memsim.CallWait:
		return x.nextCall(u.PID) != memsim.CallSignal
	default: // CallPoll
		return x.Ret(c.PID) == 0 || x.nextCall(u.PID) != memsim.CallSignal
	}
}

// nextCall is the kind of p's next scripted call.
func (x *monitor) nextCall(p memsim.PID) memsim.CallKind {
	return x.Script(p)[x.Progress(p)]
}

// runBacktrack lives in parallel.go: the backtracking DFS is driven by the
// engine's worker pool (of size one and up) sharding the schedule tree
// over a work-stealing frontier.
