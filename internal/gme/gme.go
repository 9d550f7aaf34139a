// Package gme implements a group mutual exclusion substrate. GME [19]
// generalizes mutual exclusion: requests carry a session ID and processes
// requesting the *same* session may occupy the resource concurrently. The
// paper's introduction builds directly on the Hadzilacos–Danek GME result
// [8] — the first CC/DSM RMR separation, for two-session GME — and its own
// signaling lower bound strengthens that separation; this package provides
// the problem, a lock-based solution, and a safety checker so the
// predecessor setting is runnable in the same framework.
//
// The algorithm here is the simple mutex-guarded room (in the spirit of
// Keane–Moir [20]): a state word holds the current session and an
// occupancy count, both manipulated under an MCS lock. It is terminating
// and session-safe but not local-spin-optimal; reproducing [8]'s O(log N)
// CC algorithm and Ω(N) DSM bound is out of scope for this reproduction — the
// measured CC-vs-DSM contrast of even this simple algorithm illustrates
// the asymmetry the paper discusses.
package gme

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/sched"
)

// GME is a deployed group-mutual-exclusion object. Its sections are
// resumable frames that a larger frame drives inside one procedure call.
type GME interface {
	// Enter returns pid's entry section for the given session: it
	// busy-waits (in simulated steps) until pid may occupy the resource
	// under that session.
	Enter(pid memsim.PID, session memsim.Value) memsim.Resumable
	// Exit returns pid's exit section, relinquishing its occupancy of
	// the session.
	Exit(pid memsim.PID, session memsim.Value) memsim.Resumable
}

// RoomLock is the mutex-guarded GME: session state and occupancy count are
// read and updated inside short critical sections of an MCS lock; entry
// for a conflicting session busy-waits by re-acquiring.
type RoomLock struct {
	lock    mutex.SectionRestarter
	session memsim.Addr // current session or Nil
	count   memsim.Addr // occupants of the current session
}

var _ GME = (*RoomLock)(nil)

// NewRoomLock deploys the lock-based GME for n processes.
func NewRoomLock(m *memsim.Machine, n int) (*RoomLock, error) {
	lk, err := mutex.MCS().New(m, n)
	if err != nil {
		return nil, fmt.Errorf("deploy inner lock: %w", err)
	}
	return &RoomLock{
		lock:    lk.(mutex.SectionRestarter),
		session: m.Alloc(memsim.NoOwner, "gme.session", 1, memsim.Nil),
		count:   m.Alloc(memsim.NoOwner, "gme.count", 1, 0),
	}, nil
}

// Enter implements GME:
//
//	repeat
//	  acquire; cur := read(session)
//	  if cur = NIL or cur = s { write(session, s); write(count, read(count)+1) }
//	  release
//	until the room was entered
func (g *RoomLock) Enter(pid memsim.PID, session memsim.Value) memsim.Resumable {
	return &roomFrame{g: g, pid: pid, session: session}
}

// Exit implements GME:
//
//	acquire; c := read(count)-1; write(count, c)
//	if c = 0 { write(session, NIL) }
//	release
func (g *RoomLock) Exit(pid memsim.PID, session memsim.Value) memsim.Resumable {
	return &roomFrame{g: g, pid: pid, session: session, exit: true}
}

// Room frame program counters: the acquire section, the accesses under
// the lock, and the release section.
const (
	roomLock uint8 = iota
	roomAcquire
	roomSession // Enter: session word read
	roomClaimed // Enter: session word written
	roomCount   // count read
	roomUpdated // Exit: count written
	roomRelease
	roomReleasing
)

// roomFrame is RoomLock's entry or exit section. Its lock sections are
// minted by the first attempt and restarted in place by every later one
// (mutex.SectionRestarter), so retries allocate nothing.
type roomFrame struct {
	g        *RoomLock
	pid      memsim.PID
	session  memsim.Value
	exit     bool
	entered  bool
	acq, rel memsim.Resumable
	count    memsim.Value // Exit: the decremented count
	pc       uint8
}

// start makes f g's entry (exit false) or exit section for pid, keeping
// f's lock-section storage: the GME entry frame runs Enter and then Exit
// in one roomFrame.
func (f *roomFrame) start(g *RoomLock, pid memsim.PID, session memsim.Value, exit bool) {
	*f = roomFrame{g: g, pid: pid, session: session, exit: exit, acq: f.acq, rel: f.rel}
}

func (f *roomFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case roomLock:
			if !f.g.lock.Restart(f.acq, f.pid, true) {
				f.acq = f.g.lock.AcquireFrame(f.pid)
			}
			prev = memsim.Result{}
			f.pc = roomAcquire
		case roomAcquire:
			if acc, ok := f.acq.Next(prev); ok {
				return acc, true
			}
			if f.exit {
				f.pc = roomCount
				return memsim.AccRead(f.g.count), true
			}
			f.pc = roomSession
			return memsim.AccRead(f.g.session), true
		case roomSession:
			if cur := prev.Val; cur != memsim.Nil && cur != f.session {
				f.pc = roomRelease // conflicting session: retry through the lock
				continue
			}
			f.entered = true
			f.pc = roomClaimed
			return memsim.AccWrite(f.g.session, f.session), true
		case roomClaimed:
			f.pc = roomCount
			return memsim.AccRead(f.g.count), true
		case roomCount:
			if !f.exit {
				f.pc = roomRelease
				return memsim.AccWrite(f.g.count, prev.Val+1), true
			}
			f.count = prev.Val - 1
			f.pc = roomUpdated
			return memsim.AccWrite(f.g.count, f.count), true
		case roomUpdated:
			f.pc = roomRelease
			if f.count == 0 {
				return memsim.AccWrite(f.g.session, memsim.Nil), true
			}
		case roomRelease:
			if !f.g.lock.Restart(f.rel, f.pid, false) {
				f.rel = f.g.lock.ReleaseFrame(f.pid)
			}
			prev = memsim.Result{}
			f.pc = roomReleasing
		default:
			if acc, ok := f.rel.Next(prev); ok {
				return acc, true
			}
			if f.exit || f.entered {
				return memsim.Access{}, false
			}
			f.pc = roomLock
		}
	}
}

func (f *roomFrame) Return() memsim.Value { return 0 }

// CloneInto implements memsim.Resumable: the lock sections are copied, not
// shared, into dst's sections when the types line up.
func (f *roomFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[roomFrame](dst)
	acq, rel := d.acq, d.rel
	*d = *f
	d.acq = memsim.CloneResumableInto(acq, f.acq)
	d.rel = memsim.CloneResumableInto(rel, f.rel)
	return d
}

// ErrBudget is returned when a GME run exhausts its step budget. It is the
// shared harness sentinel.
var ErrBudget = harness.ErrBudget

// ErrInterrupted is returned when a GME run stops because
// RunConfig.Interrupt fired.
var ErrInterrupted = harness.ErrInterrupted

// RunConfig describes a contended GME workload: each process performs
// Entries critical sections, alternating between Sessions session IDs
// (process i uses session i mod Sessions). Scorers, KeepEvents, Sink and
// Interrupt mirror mutex.RunConfig: attached scorers price the run in a
// single pass, and only KeepEvents retains the trace for after-the-fact
// scoring. A nil Scheduler means the harness default, seeded random
// (seed 1).
type RunConfig struct {
	N          int
	Sessions   int
	Entries    int
	Scheduler  sched.Scheduler
	MaxSteps   int
	Scorers    []model.Scorer
	KeepEvents bool
	Sink       memsim.EventSink
	Interrupt  <-chan struct{}
}

// RunResult is the outcome of a GME workload. The embedded harness result
// carries the trace (if retained), the streaming reports, step counts and
// truncation flags.
type RunResult struct {
	*harness.Result
	// Entries counts completed critical sections.
	Entries int
	// SessionSafe is false if two different sessions were observed
	// occupying the resource concurrently.
	SessionSafe bool
	// MaxConcurrent is the largest same-session occupancy observed —
	// the concurrency GME exists to permit (ordinary ME caps it at 1).
	MaxConcurrent int
}

// PerEntry returns total RMRs divided by completed entries under cm. It is
// NaN when no entry completed or cm is unscoreable for this run (neither
// attached nor batch-scoreable from a retained trace).
func (r *RunResult) PerEntry(cm model.CostModel) float64 {
	rep := r.Score(cm)
	if rep == nil || r.Entries == 0 {
		return math.NaN()
	}
	return float64(rep.Total) / float64(r.Entries)
}

// Workload is the contended GME workload on the generic streaming harness.
// It detects session-safety violations with per-session occupancy probes:
// on entry each occupant increments its session's probe counter and then
// checks the other sessions' counters, which must be zero while it is
// inside. Each process's entries restart one kept entry frame, whose room
// keeps its lock sections, so a run mints one entry frame per process,
// not one per entry.
type Workload struct {
	n, sessions int
	remaining   []int
	frames      []entryFrame // per process; restarted by each entry

	room          *RoomLock
	probes        memsim.Addr
	entries       int
	violated      bool
	maxConcurrent int
}

var _ harness.Workload = (*Workload)(nil)

// NewWorkload returns the workload for n processes, each performing entries
// critical sections over the given number of sessions.
func NewWorkload(n, sessions, entries int) *Workload {
	w := &Workload{n: n, sessions: sessions, remaining: make([]int, n), frames: make([]entryFrame, n)}
	for i := range w.remaining {
		w.remaining[i] = entries
	}
	return w
}

// N implements harness.Workload.
func (w *Workload) N() int { return w.n }

// Deploy implements harness.Workload.
func (w *Workload) Deploy(m *memsim.Machine) error {
	g, err := NewRoomLock(m, w.n)
	if err != nil {
		return err
	}
	w.room = g
	w.probes = m.Alloc(memsim.NoOwner, "probe", w.sessions, 0)
	return nil
}

// Next implements harness.Workload: the entry restarts pid's kept entry
// frame, keeping its room's lock-section storage.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	if w.remaining[pid] <= 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	f := &w.frames[pid]
	*f = entryFrame{w: w, pid: pid, session: memsim.Value(int(pid) % w.sessions), room: f.room}
	return "gme", f, true
}

// Entry frame program counters.
const (
	entEnter uint8 = iota
	entEntering
	entProbed
	entScan
	entScanned
	entLeave
	entExiting
)

// entryFrame is one GME critical section with its safety probe:
//
//	Enter(s); mine := FAA(probe[s], 1) + 1
//	for every other session s': violation |= read(probe[s']) != 0
//	FAA(probe[s], -1); Exit(s)
//	return -1 on a violation, else mine (the same-session occupancy seen)
type entryFrame struct {
	w         *Workload
	pid       memsim.PID
	session   memsim.Value
	room      roomFrame // the Enter section, then the Exit section
	mine      memsim.Value
	s         int // session being scanned
	violation bool
	pc        uint8
}

func (f *entryFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	probe := f.w.probes + memsim.Addr(f.session)
	for {
		switch f.pc {
		case entEnter:
			f.room.start(f.w.room, f.pid, f.session, false)
			prev = memsim.Result{}
			f.pc = entEntering
		case entEntering:
			if acc, ok := f.room.Next(prev); ok {
				return acc, true
			}
			f.pc = entProbed
			return memsim.AccFetchAdd(probe, 1), true
		case entProbed:
			f.mine = prev.Val + 1
			f.pc = entScan
		case entScan:
			if memsim.Value(f.s) == f.session {
				f.s++
			}
			if f.s >= f.w.sessions {
				f.pc = entLeave
				return memsim.AccFetchAdd(probe, -1), true
			}
			f.pc = entScanned
			return memsim.AccRead(f.w.probes + memsim.Addr(f.s)), true
		case entScanned:
			if prev.Val != 0 {
				f.violation = true
			}
			f.s++
			f.pc = entScan
		case entLeave:
			f.room.start(f.w.room, f.pid, f.session, true)
			prev = memsim.Result{}
			f.pc = entExiting
		default:
			if acc, ok := f.room.Next(prev); ok {
				return acc, true
			}
			return memsim.Access{}, false
		}
	}
}

func (f *entryFrame) Return() memsim.Value {
	if f.violation {
		return -1
	}
	return f.mine
}

// CloneInto implements memsim.Resumable: the room's lock sections are
// copied, not shared, into dst's room when the types line up.
func (f *entryFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[entryFrame](dst)
	room := d.room
	*d = *f
	d.room = room
	f.room.CloneInto(&d.room)
	return d
}

// Done implements harness.Workload.
func (w *Workload) Done(_ memsim.PID, ret memsim.Value) {
	w.entries++
	if ret < 0 {
		w.violated = true
	} else if int(ret) > w.maxConcurrent {
		w.maxConcurrent = int(ret)
	}
}

// CompletedEntries returns the number of critical sections finished so far.
func (w *Workload) CompletedEntries() int { return w.entries }

// SessionSafe reports whether no cross-session overlap has been observed.
func (w *Workload) SessionSafe() bool { return !w.violated }

// MaxConcurrent returns the largest same-session occupancy observed.
func (w *Workload) MaxConcurrent() int { return w.maxConcurrent }

// Run drives the workload on the streaming harness, applying cfg exactly
// as given. It returns ErrBudget or ErrInterrupted (wrapped) together with
// a valid truncated RunResult.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.N < 1 || cfg.Sessions < 1 {
		return nil, fmt.Errorf("gme: need processes and sessions, got N=%d S=%d", cfg.N, cfg.Sessions)
	}
	if cfg.Entries < 1 {
		cfg.Entries = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000
	}

	w := NewWorkload(cfg.N, cfg.Sessions, cfg.Entries)
	hres, err := harness.Run(harness.Config{
		Workload:   w,
		Scheduler:  cfg.Scheduler,
		MaxSteps:   cfg.MaxSteps,
		Scorers:    cfg.Scorers,
		KeepEvents: cfg.KeepEvents,
		Sink:       cfg.Sink,
		Interrupt:  cfg.Interrupt,
	})
	if hres == nil {
		return nil, err
	}
	return &RunResult{
		Result:        hres,
		Entries:       w.CompletedEntries(),
		SessionSafe:   w.SessionSafe(),
		MaxConcurrent: w.MaxConcurrent(),
	}, err
}
