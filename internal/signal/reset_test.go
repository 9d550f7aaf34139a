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
// fresh deployment. For every algorithm, under polling and under blocking
// semantics (blocking=true runs Wait: the algorithm's own, or Blockified's
// for a polling algorithm), a seeded random schedule with crashes and lost
// CASes is recorded; then, for several victim sets, the same used
// execution is rewound and fed the schedule without the victims' actions.
// Trace (sequence numbers included), memory, address space and every
// process's state must match the fresh replay, or both must refuse the
// same action.
func TestResetReplayMatchesFreshDeployment(t *testing.T) {
	const n = 5
	victimSets := [][]memsim.PID{nil, {0}, {n - 1}, {1, 3}, {0, 2, n - 1}}
	for _, alg := range All() {
		for _, blocking := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/blocking=%v", alg.Name, blocking), func(t *testing.T) {
				a, kind := alg, memsim.CallPoll
				switch {
				case !alg.Variant.Polling:
					kind = memsim.CallWait
				case blocking:
					a, kind = Blockified(alg), memsim.CallWait
				}
				for seed := int64(1); seed <= 3; seed++ {
					used, err := a.Deploy(n)
					if err != nil {
						t.Fatal(err)
					}
					log := recordSchedule(t, used, kind, rand.New(rand.NewSource(seed)))
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
						fresh, wantErr := memsim.Replay(a.New, n, kept)
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
					}
				}
			})
		}
	}
}

// recordSchedule drives e through a random schedule: waiters 0..n-2 make
// up to five Polls (kind Poll) or one Wait (kind Wait), p(n-1) signals
// once after a few steps, and pending processes occasionally crash or
// lose a CAS response. It returns a copy of the recorded action log.
func recordSchedule(t *testing.T, e *memsim.Execution, kind memsim.CallKind, rng *rand.Rand) []memsim.Action {
	t.Helper()
	n := e.N()
	sig := memsim.PID(n - 1)
	calls := 5
	if kind == memsim.CallWait {
		calls = 1
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
func applyAll(e *memsim.Execution, actions []memsim.Action) error {
	for i, a := range actions {
		if err := e.Apply(a); err != nil {
			return fmt.Errorf("replay action %d (%v p%d): %w", i, a.Kind, a.PID, err)
		}
	}
	return nil
}

// executionDiff describes the first observable difference between two
// executions, or returns "" when they agree.
func executionDiff(got, want *memsim.Execution) string {
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
		case gm.LastWriter(addr) != wm.LastWriter(addr):
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
