package signal

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memsim"
)

// driver is what driveScripted needs of an execution: *memsim.Execution
// provides it, and freshRun provides it on a bare Controller.
type driver interface {
	Idle(memsim.PID) bool
	Pending(memsim.PID) (memsim.Access, bool)
	CallEnded(memsim.PID) (memsim.Value, bool)
	Start(memsim.PID, memsim.CallKind) error
	Step(memsim.PID) (memsim.Event, error)
	Finish(memsim.PID) (memsim.Value, error)
	Events() []memsim.Event
}

// freshRun starts every call in a frame the instance mints anew
// (ProgramInto with no storage) on a bare Controller, where a
// memsim.Execution builds it in retained storage.
type freshRun struct {
	*memsim.Controller
	inst memsim.Instance
}

func (r freshRun) Start(p memsim.PID, kind memsim.CallKind) error {
	f, err := r.inst.ProgramInto(nil, p, kind)
	if err != nil {
		return err
	}
	return r.StartResumable(p, kind.String(), f)
}

func (r freshRun) Finish(p memsim.PID) (memsim.Value, error) { return r.FinishCall(p) }

// driveScripted runs factory's processes through their scripts under a
// deterministic seeded schedule and returns the trace. With fresh, calls
// run on a bare Controller from freshly minted frames (freshRun);
// otherwise on a memsim.Execution: the same (factory, scripts, seed) must
// yield byte-identical traces both ways.
func driveScripted(t *testing.T, factory memsim.Factory, n int,
	scripts map[memsim.PID][]memsim.CallKind, seed int64, fresh bool, maxSteps int) []memsim.Event {
	t.Helper()
	var e driver
	if fresh {
		m := memsim.NewMachine(n)
		inst, err := factory(m, n)
		if err != nil {
			t.Fatal(err)
		}
		e = freshRun{memsim.NewController(m), inst}
	} else {
		exec, err := memsim.NewExecution(factory, n)
		if err != nil {
			t.Fatal(err)
		}
		e = exec
	}
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
			if _, done := e.CallEnded(p); done {
				ret, err := e.Finish(p)
				if err != nil {
					t.Fatal(err)
				}
				if current[p] == memsim.CallPoll && ret != 0 {
					progress[p] = len(script) // signal observed: stop polling
				}
			}
			if e.Idle(p) && progress[p] < len(script) {
				kind := script[progress[p]]
				if err := e.Start(p, kind); err != nil {
					t.Fatalf("start %v on p%d: %v", kind, p, err)
				}
				progress[p]++
				current[p] = kind
			}
			if _, ok := e.Pending(p); ok {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 || steps >= maxSteps {
			break
		}
		if _, err := e.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
	return append([]memsim.Event(nil), e.Events()...)
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

// TestEngineTraceEquivalence drives every algorithm under identical
// schedules twice, from freshly minted frames on a bare Controller and
// from template copies on a memsim.Execution, and asserts byte-identical
// traces — for polling and (where provided) blocking semantics, across
// several seeds.
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
					freshTrace := driveScripted(t, alg.New, n, scripts, seed, true, 20000)
					execTrace := driveScripted(t, alg.New, n, scripts, seed, false, 20000)
					if len(freshTrace) == 0 {
						t.Fatalf("%v seed %d: empty trace", kind, seed)
					}
					if !reflect.DeepEqual(freshTrace, execTrace) {
						for i := range freshTrace {
							if i >= len(execTrace) || freshTrace[i] != execTrace[i] {
								t.Fatalf("%v seed %d: traces diverge at event %d:\n fresh:     %+v\n execution: %+v",
									kind, seed, i, freshTrace[i], eventAt(execTrace, i))
							}
						}
						t.Fatalf("%v seed %d: execution trace longer (%d vs %d events)",
							kind, seed, len(execTrace), len(freshTrace))
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
