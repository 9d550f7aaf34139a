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
// CC algorithm and Ω(N) DSM bound is out of scope (DESIGN.md §2) — the
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

// GME is a deployed group-mutual-exclusion object.
type GME interface {
	// Enter blocks (in simulated steps) until the caller may occupy the
	// resource under the given session.
	Enter(p *memsim.Proc, session memsim.Value)
	// Exit relinquishes the caller's occupancy of the session.
	Exit(p *memsim.Proc, session memsim.Value)
}

// RoomLock is the mutex-guarded GME: session state and occupancy count are
// read and updated inside short critical sections of an MCS lock; entry
// for a conflicting session busy-waits by re-acquiring.
type RoomLock struct {
	lock    mutex.Lock
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
		lock:    lk,
		session: m.Alloc(memsim.NoOwner, "gme.session", 1, memsim.Nil),
		count:   m.Alloc(memsim.NoOwner, "gme.count", 1, 0),
	}, nil
}

// Enter implements GME.
func (g *RoomLock) Enter(p *memsim.Proc, session memsim.Value) {
	for {
		g.lock.Acquire(p)
		cur := p.Read(g.session)
		if cur == memsim.Nil || cur == session {
			p.Write(g.session, session)
			p.Write(g.count, p.Read(g.count)+1)
			g.lock.Release(p)
			return
		}
		g.lock.Release(p)
		// Conflicting session active: retry (busy-wait through the lock).
	}
}

// Exit implements GME.
func (g *RoomLock) Exit(p *memsim.Proc, session memsim.Value) {
	g.lock.Acquire(p)
	c := p.Read(g.count) - 1
	p.Write(g.count, c)
	if c == 0 {
		p.Write(g.session, memsim.Nil)
	}
	g.lock.Release(p)
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
// single pass, and unpriced runs without KeepEvents retain the trace for
// after-the-fact scoring (the legacy behavior).
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
// inside.
type Workload struct {
	n, sessions int
	remaining   []int

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
	w := &Workload{n: n, sessions: sessions, remaining: make([]int, n)}
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

// Next implements harness.Workload.
func (w *Workload) Next(pid memsim.PID) (string, memsim.Program, bool) {
	if w.remaining[pid] <= 0 {
		return "", nil, false
	}
	w.remaining[pid]--
	return "gme", w.entry(pid), true
}

func (w *Workload) entry(pid memsim.PID) memsim.Program {
	session := memsim.Value(int(pid) % w.sessions)
	return func(p *memsim.Proc) memsim.Value {
		w.room.Enter(p, session)
		mine := p.FetchAdd(w.probes+memsim.Addr(session), 1) + 1
		violation := false
		for s := 0; s < w.sessions; s++ {
			if memsim.Value(s) == session {
				continue
			}
			if p.Read(w.probes+memsim.Addr(s)) != 0 {
				violation = true
			}
		}
		p.FetchAdd(w.probes+memsim.Addr(session), -1)
		w.room.Exit(p, session)
		if violation {
			return -1
		}
		return mine // same-session occupancy observed at entry
	}
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

// Run drives the workload on the streaming harness (unpriced runs without
// KeepEvents retain the trace, the legacy behavior). It returns ErrBudget
// or ErrInterrupted (wrapped) together with a valid truncated RunResult.
func Run(cfg RunConfig) (*RunResult, error) {
	if !cfg.KeepEvents && len(cfg.Scorers) == 0 {
		cfg.KeepEvents = true // legacy: unpriced runs keep the trace scoreable
	}
	if cfg.N < 1 || cfg.Sessions < 1 {
		return nil, fmt.Errorf("gme: need processes and sessions, got N=%d S=%d", cfg.N, cfg.Sessions)
	}
	if cfg.Entries < 1 {
		cfg.Entries = 1
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewRandom(1)
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
