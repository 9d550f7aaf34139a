package signal

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memsim"
)

// driveScripted runs factory's processes through their scripts under a
// deterministic seeded schedule on a Controller and returns the trace.
// Every call's frame is minted by the instance and runs either inline
// (StartResumable) or, with blocking, through the blocking adapter
// (memsim.Blocking) on the controller's goroutine tier: the same
// (factory, scripts, seed) must yield byte-identical traces both ways.
func driveScripted(t *testing.T, factory memsim.Factory, n int,
	scripts map[memsim.PID][]memsim.CallKind, seed int64, blocking bool, maxSteps int) []memsim.Event {
	t.Helper()
	m := memsim.NewMachine(n)
	inst, err := factory(m, n)
	if err != nil {
		t.Fatal(err)
	}
	ctl := memsim.NewController(m)
	defer ctl.Close()
	rng := rand.New(rand.NewSource(seed))
	progress := make(map[memsim.PID]int, len(scripts))
	current := make(map[memsim.PID]memsim.CallKind, len(scripts))
	for steps := 0; ; steps++ {
		var ready []memsim.PID
		for pid := 0; pid < n; pid++ {
			p := memsim.PID(pid)
			script, ok := scripts[p]
			if !ok {
				continue
			}
			if _, done := ctl.CallEnded(p); done {
				ret, err := ctl.FinishCall(p)
				if err != nil {
					t.Fatal(err)
				}
				if current[p] == memsim.CallPoll && ret != 0 {
					progress[p] = len(script) // signal observed: stop polling
				}
			}
			if ctl.Idle(p) && progress[p] < len(script) {
				kind := script[progress[p]]
				r, err := inst.ResumableProgram(p, kind)
				if err == nil && blocking {
					err = ctl.StartCall(p, kind.String(), memsim.Blocking(r))
				} else if err == nil {
					err = ctl.StartResumable(p, kind.String(), r)
				}
				if err != nil {
					t.Fatalf("start %v on p%d: %v", kind, p, err)
				}
				progress[p]++
				current[p] = kind
			}
			if _, ok := ctl.Pending(p); ok {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 || steps >= maxSteps {
			break
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
	return append([]memsim.Event(nil), ctl.Events()...)
}

// scriptsFor builds a representative contended workload for alg on 4 (or 5)
// processes: two waiters (one for the single-waiter variant), one signaler
// at N-1, plus a second racing signaler for algorithms that allow it.
func scriptsFor(alg Algorithm, kind memsim.CallKind) (int, map[memsim.PID][]memsim.CallKind) {
	n := 4
	scripts := make(map[memsim.PID][]memsim.CallKind)
	waiters := []memsim.PID{0, 1}
	if alg.Variant.Waiters == 1 {
		waiters = waiters[:1]
	}
	for _, w := range waiters {
		script := make([]memsim.CallKind, 3)
		for i := range script {
			script[i] = kind
		}
		if kind == memsim.CallWait {
			script = script[:1] // one blocking Wait per waiter
		}
		scripts[w] = script
	}
	scripts[memsim.PID(n-1)] = []memsim.CallKind{memsim.CallSignal}
	if !alg.Variant.FixedSignaler {
		scripts[memsim.PID(n-2)] = []memsim.CallKind{memsim.CallSignal}
	}
	return n, scripts
}

// TestEngineTraceEquivalence drives every algorithm's frames inline and
// through the blocking adapter under identical schedules and asserts
// byte-identical traces — for polling and (where provided) blocking
// semantics, across several seeds.
func TestEngineTraceEquivalence(t *testing.T) {
	algs := All()
	for _, a := range All() {
		if a.Variant.Polling {
			algs = append(algs, Blockified(a))
		}
	}
	for _, alg := range algs {
		t.Run(alg.Name, func(t *testing.T) {
			kinds := []memsim.CallKind{}
			if alg.Variant.Polling {
				kinds = append(kinds, memsim.CallPoll)
			}
			if alg.Variant.Blocking {
				kinds = append(kinds, memsim.CallWait)
			}
			for _, kind := range kinds {
				n, scripts := scriptsFor(alg, kind)
				for seed := int64(1); seed <= 4; seed++ {
					blockingTrace := driveScripted(t, alg.New, n, scripts, seed, true, 20000)
					resumableTrace := driveScripted(t, alg.New, n, scripts, seed, false, 20000)
					if len(blockingTrace) == 0 {
						t.Fatalf("%v seed %d: empty trace", kind, seed)
					}
					if !reflect.DeepEqual(blockingTrace, resumableTrace) {
						for i := range blockingTrace {
							if i >= len(resumableTrace) || blockingTrace[i] != resumableTrace[i] {
								t.Fatalf("%v seed %d: traces diverge at event %d:\n blocking:  %+v\n resumable: %+v",
									kind, seed, i, blockingTrace[i], eventAt(resumableTrace, i))
							}
						}
						t.Fatalf("%v seed %d: resumable trace longer (%d vs %d events)",
							kind, seed, len(resumableTrace), len(blockingTrace))
					}
				}
			}
		})
	}
}

func eventAt(events []memsim.Event, i int) any {
	if i < len(events) {
		return events[i]
	}
	return "<missing>"
}

// TestResumableReturnsMatchBlocking checks return plumbing through
// Execution.Finish on a solo history (the trace check covers return
// values via EvCallEnd, but Finish is a separate path).
func TestResumableReturnsMatchBlocking(t *testing.T) {
	alg := SingleWaiter()
	exec, err := memsim.NewExecution(alg.New, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	// Solo run: Poll (false), Signal, Poll (true).
	if ret, err := exec.Invoke(0, memsim.CallPoll, 100); err != nil || ret != 0 {
		t.Fatalf("first poll: ret=%d err=%v", ret, err)
	}
	if _, err := exec.Invoke(1, memsim.CallSignal, 100); err != nil {
		t.Fatal(err)
	}
	if ret, err := exec.Invoke(0, memsim.CallPoll, 100); err != nil || ret != 1 {
		t.Fatalf("post-signal poll: ret=%d err=%v", ret, err)
	}
}
