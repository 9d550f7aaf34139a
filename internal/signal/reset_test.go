package signal

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

// TestResetReplayMatchesFreshDeployment pins the contract erasure by
// rewind rests on: an execution that has run, Reset, and re-applied a
// schedule is indistinguishable from memsim.Replay of that schedule on a
// fresh deployment. For every algorithm, on both engine tiers (frames
// inline on a memsim.Execution, or through the blocking adapter on a
// Controller's goroutine tier, see adapterRun), a seeded random schedule
// with crashes and lost CASes is recorded; then, for several victim sets,
// the same used execution is rewound and fed the schedule without the
// victims' actions. Trace (sequence numbers
// included), memory, address space and every process's state must match
// the fresh replay, or both must refuse the same action.
func TestResetReplayMatchesFreshDeployment(t *testing.T) {
	const n = 5
	victimSets := [][]memsim.PID{nil, {0}, {n - 1}, {1, 3}, {0, 2, n - 1}}
	for _, alg := range All() {
		for _, blocking := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/blocking=%v", alg.Name, blocking), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					used, err := deployTier(alg, n, blocking)
					if err != nil {
						t.Fatal(err)
					}
					log := recordSchedule(t, used, alg, rand.New(rand.NewSource(seed)))
					for _, victims := range victimSets {
						erased := make([]bool, n)
						for _, v := range victims {
							erased[v] = true
						}
						var kept []memsim.Action
						for _, a := range log {
							if !erased[a.PID] {
								kept = append(kept, a)
							}
						}
						used.Reset()
						gotErr := applyAll(used, kept)
						fresh, wantErr := replayTier(alg, n, blocking, kept)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("seed %d, victims %v: rewound replay error %v, fresh replay error %v",
								seed, victims, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						for _, a := range used.Actions() {
							if erased[a.PID] {
								t.Fatalf("seed %d, victims %v: erased p%d's action survived", seed, victims, a.PID)
							}
						}
						if len(used.Actions()) != len(kept) {
							t.Fatalf("seed %d, victims %v: rewound log has %d actions, want %d",
								seed, victims, len(used.Actions()), len(kept))
						}
						if diff := executionDiff(used, fresh); diff != "" {
							t.Fatalf("seed %d, victims %v: rewound replay differs from a fresh one: %s", seed, victims, diff)
						}
						fresh.Close()
					}
					used.Close()
				}
			})
		}
	}
}

// recordSchedule drives e through a random schedule: waiters 0..n-2 poll
// up to five times (or, without Poll, Wait once), p(n-1) signals once
// after a few steps, and pending processes occasionally crash or lose a
// CAS response. It returns a copy of the recorded action log.
func recordSchedule(t *testing.T, e runner, alg Algorithm, rng *rand.Rand) []memsim.Action {
	t.Helper()
	n := e.N()
	sig := memsim.PID(n - 1)
	kind, calls := memsim.CallPoll, 5
	if !alg.Variant.Polling {
		kind, calls = memsim.CallWait, 1
	}
	for step := 0; step < 300; step++ {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			p := memsim.PID(i)
			if _, done := e.CallEnded(p); done {
				if _, err := e.Finish(p); err != nil {
					t.Fatal(err)
				}
			}
			if e.Idle(p) {
				switch {
				case p != sig && e.Calls(p) < calls:
					if err := e.Start(p, kind); err != nil {
						t.Fatal(err)
					}
				case p == sig && e.Calls(p) == 0 && step >= 20:
					if err := e.Start(p, memsim.CallSignal); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, ok := e.Pending(p); ok {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			break
		}
		p := ready[rng.Intn(len(ready))]
		acc, _ := e.Pending(p)
		var err error
		switch r := rng.Intn(40); {
		case r == 0:
			_, err = e.Crash(p, memsim.VolOwned)
		case r == 1:
			_, err = e.Crash(p, memsim.VolStable)
		case r < 6 && acc.Op == memsim.OpCAS && e.Machine().Load(acc.Addr) == acc.Arg1:
			_, err = e.StepLostCAS(p)
		default:
			_, err = e.Step(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return append([]memsim.Action(nil), e.Actions()...)
}

// applyAll applies actions in order, reporting a refused action the way
// memsim.Replay does.
func applyAll(e runner, actions []memsim.Action) error {
	for i, a := range actions {
		if err := e.Apply(a); err != nil {
			return fmt.Errorf("replay action %d (%v p%d): %w", i, a.Kind, a.PID, err)
		}
	}
	return nil
}

// runner is the part of memsim.Execution the Reset contract is checked
// on; adapterRun provides it on the goroutine tier.
type runner interface {
	N() int
	Machine() *memsim.Machine
	Events() []memsim.Event
	Actions() []memsim.Action
	Idle(memsim.PID) bool
	Calls(memsim.PID) int
	Pending(memsim.PID) (memsim.Access, bool)
	CallEnded(memsim.PID) (memsim.Value, bool)
	Start(memsim.PID, memsim.CallKind) error
	Step(memsim.PID) (memsim.Event, error)
	Finish(memsim.PID) (memsim.Value, error)
	Crash(memsim.PID, memsim.Volatility) (memsim.Event, error)
	StepLostCAS(memsim.PID) (memsim.Event, error)
	Apply(memsim.Action) error
	Reset()
	Close()
}

// adapterRun runs an algorithm's frames through the blocking adapter
// (memsim.Blocking) on a Controller's goroutine tier, keeping the action
// log a memsim.Execution keeps.
type adapterRun struct {
	*memsim.Controller
	inst    memsim.Instance
	n       int
	actions []memsim.Action
}

func (e *adapterRun) N() int                   { return e.n }
func (e *adapterRun) Actions() []memsim.Action { return e.actions }

func (e *adapterRun) log(a memsim.Action, err error) error {
	if err == nil {
		e.actions = append(e.actions, a)
	}
	return err
}

func (e *adapterRun) Start(pid memsim.PID, kind memsim.CallKind) error {
	r, err := e.inst.ResumableProgram(pid, kind)
	if err == nil {
		err = e.StartCall(pid, kind.String(), memsim.Blocking(r))
	}
	return e.log(memsim.Action{Kind: memsim.ActStart, PID: pid, Call: kind}, err)
}

func (e *adapterRun) Step(pid memsim.PID) (memsim.Event, error) {
	ev, err := e.Controller.Step(pid)
	return ev, e.log(memsim.Action{Kind: memsim.ActStep, PID: pid}, err)
}

func (e *adapterRun) Finish(pid memsim.PID) (memsim.Value, error) {
	ret, err := e.FinishCall(pid)
	return ret, e.log(memsim.Action{Kind: memsim.ActFinish, PID: pid}, err)
}

func (e *adapterRun) Crash(pid memsim.PID, vol memsim.Volatility) (memsim.Event, error) {
	ev, err := e.Controller.Crash(pid, vol)
	return ev, e.log(memsim.Action{Kind: memsim.ActCrash, PID: pid, Vol: vol}, err)
}

func (e *adapterRun) StepLostCAS(pid memsim.PID) (memsim.Event, error) {
	ev, err := e.Controller.StepLostCAS(pid)
	return ev, e.log(memsim.Action{Kind: memsim.ActLostCAS, PID: pid}, err)
}

func (e *adapterRun) Apply(a memsim.Action) error {
	var err error
	switch a.Kind {
	case memsim.ActStart:
		err = e.Start(a.PID, a.Call)
	case memsim.ActStep:
		_, err = e.Step(a.PID)
	case memsim.ActFinish:
		_, err = e.Finish(a.PID)
	case memsim.ActCrash:
		_, err = e.Crash(a.PID, a.Vol)
	default:
		_, err = e.StepLostCAS(a.PID)
	}
	return err
}

func (e *adapterRun) Reset() {
	e.Controller.Reset()
	e.Machine().Reset()
	e.actions = e.actions[:0]
}

// deployTier deploys alg for n processes on the given engine tier.
func deployTier(alg Algorithm, n int, blocking bool) (runner, error) {
	if !blocking {
		return alg.Deploy(n)
	}
	m := memsim.NewMachine(n)
	inst, err := alg.New(m, n)
	if err != nil {
		return nil, err
	}
	return &adapterRun{Controller: memsim.NewController(m), inst: inst, n: n}, nil
}

// replayTier is memsim.Replay on the given engine tier.
func replayTier(alg Algorithm, n int, blocking bool, actions []memsim.Action) (runner, error) {
	e, err := deployTier(alg, n, blocking)
	if err != nil {
		return nil, err
	}
	if err := applyAll(e, actions); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// executionDiff describes the first observable difference between two
// executions, or returns "" when they agree.
func executionDiff(got, want runner) string {
	ge, we := got.Events(), want.Events()
	if len(ge) != len(we) {
		return fmt.Sprintf("%d events, want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			return fmt.Sprintf("event %d: %+v, want %+v", i, ge[i], we[i])
		}
	}
	gm, wm := got.Machine(), want.Machine()
	if gm.Size() != wm.Size() {
		return fmt.Sprintf("%d words, want %d", gm.Size(), wm.Size())
	}
	gs, ws := gm.Snapshot(), wm.Snapshot()
	for a := range ws {
		addr := memsim.Addr(a)
		switch {
		case gs[a] != ws[a]:
			return fmt.Sprintf("word %s = %d, want %d", wm.Name(addr), gs[a], ws[a])
		case gm.Owner(addr) != wm.Owner(addr):
			return fmt.Sprintf("word %s owned by p%d, want p%d", wm.Name(addr), gm.Owner(addr), wm.Owner(addr))
		case gm.LastWriter(addr) != wm.LastWriter(addr) || gm.WriteCount(addr) != wm.WriteCount(addr):
			return fmt.Sprintf("word %s writer history differs", wm.Name(addr))
		}
	}
	for i := 0; i < want.N(); i++ {
		p := memsim.PID(i)
		ga, gok := got.Pending(p)
		wa, wok := want.Pending(p)
		if ga != wa || gok != wok {
			return fmt.Sprintf("p%d pending %v/%v, want %v/%v", p, ga, gok, wa, wok)
		}
		if got.Idle(p) != want.Idle(p) || got.Calls(p) != want.Calls(p) {
			return fmt.Sprintf("p%d idle/calls differ", p)
		}
		gr, gdone := got.CallEnded(p)
		wr, wdone := want.CallEnded(p)
		if gr != wr || gdone != wdone {
			return fmt.Sprintf("p%d call end %d/%v, want %d/%v", p, gr, gdone, wr, wdone)
		}
		gl, gok := gm.LLState(p)
		wl, wok := wm.LLState(p)
		if gl != wl || gok != wok {
			return fmt.Sprintf("p%d LL reservation differs", p)
		}
	}
	return ""
}
