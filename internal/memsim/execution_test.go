package memsim

import (
	"math/rand"
	"testing"
)

// counterFactory deploys a trivial instance: Poll increments a global
// counter and returns its new value; Signal writes a flag.
func counterFactory(m *Machine, n int) (Instance, error) {
	c := m.Alloc(NoOwner, "counter", 1, 0)
	f := m.Alloc(NoOwner, "flag", 1, 0)
	return counterInstance{c: c, f: f}, nil
}

type counterInstance struct{ c, f Addr }

func (in counterInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	switch kind {
	case CallPoll: // v := read(c); write(c, v+1); return v+1
		return &testFrame{step: func(f *testFrame, prev Result) (Access, bool) {
			switch f.pc++; f.pc {
			case 1:
				return AccRead(in.c), true
			case 2:
				f.ret = prev.Val + 1
				return AccWrite(in.c, f.ret), true
			}
			return Access{}, false
		}}, nil
	case CallSignal:
		return writeOnce(in.f, 1), nil
	default:
		return nil, ErrNoProgram
	}
}

// testFrame is a frame given by a step function over its own fields: all
// call state lives in pc and ret, so a shallow copy is an independent
// continuation.
type testFrame struct {
	step func(f *testFrame, prev Result) (Access, bool)
	pc   int
	ret  Value
}

func (f *testFrame) Next(prev Result) (Access, bool) { return f.step(f, prev) }

func (f *testFrame) Return() Value { return f.ret }

func (f *testFrame) CloneInto(dst Resumable) Resumable { return CopyFrame(f, dst) }

// writeOnce is a frame that writes v to a and returns 0.
func writeOnce(a Addr, v Value) *testFrame {
	return &testFrame{step: func(f *testFrame, _ Result) (Access, bool) {
		f.pc++
		return AccWrite(a, v), f.pc == 1
	}}
}

func TestExecutionInvoke(t *testing.T) {
	e, err := NewExecution(counterFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		ret, err := e.Invoke(0, CallPoll, 100)
		if err != nil {
			t.Fatal(err)
		}
		if ret != Value(i) {
			t.Fatalf("poll %d returned %d", i, ret)
		}
	}
}

// TestReplayDeterminism drives a random interleaving, then replays the
// recorded actions on a fresh machine and requires identical traces — the
// property the lower-bound adversary's erasure mechanics rest on.
func TestReplayDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := NewExecution(counterFactory, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := e.Start(PID(i), CallPoll); err != nil {
				t.Fatal(err)
			}
		}
		for steps := 0; steps < 60; steps++ {
			var ready []PID
			for i := 0; i < 3; i++ {
				p := PID(i)
				if _, done := e.CallEnded(p); done {
					if _, err := e.Finish(p); err != nil {
						t.Fatal(err)
					}
					if e.Calls(p) < 3 {
						if err := e.Start(p, CallPoll); err != nil {
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
			if _, err := e.Step(ready[rng.Intn(len(ready))]); err != nil {
				t.Fatal(err)
			}
		}
		actions := e.Actions()
		want := e.Events()

		replayed, err := Replay(counterFactory, 3, actions)
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		got := replayed.Events()
		if len(got) != len(want) {
			t.Fatalf("seed %d: replay produced %d events, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestRunCallBudget(t *testing.T) {
	factory := func(m *Machine, n int) (Instance, error) {
		a := m.Alloc(NoOwner, "x", 1, 0)
		return spinInstance{a: a}, nil
	}
	e, err := NewExecution(factory, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke(0, CallPoll, 10); err == nil {
		t.Fatal("Invoke should fail when the budget trips")
	}
}

type spinInstance struct{ a Addr }

// ProgramInto spins until a reads nonzero.
func (in spinInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	return &testFrame{step: func(f *testFrame, prev Result) (Access, bool) {
		f.pc++
		return AccRead(in.a), f.pc == 1 || prev.Val == 0
	}}, nil
}

// TestRefusedStartKeepsInFlightFrame: a busy process's retained frame
// storage holds its in-flight frame, so a Start refused because the
// process is busy must leave that frame — and the action log — untouched.
func TestRefusedStartKeepsInFlightFrame(t *testing.T) {
	e, err := NewExecution(func(m *Machine, n int) (Instance, error) {
		m.Alloc(NoOwner, "x", 1, 7)
		return &readInstance{}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(0, CallPoll); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(0, CallPoll); err == nil {
		t.Fatal("Start on a busy process succeeded")
	}
	if len(e.Actions()) != 1 {
		t.Fatalf("refused start was logged: %v", e.Actions())
	}
	// A start built over the in-flight frame would rewind it to its
	// first access; the intact frame completes on this step.
	if _, err := e.Step(0); err != nil {
		t.Fatal(err)
	}
	if ret, done := e.CallEnded(0); !done || ret != 7 {
		t.Fatalf("call ended = %v with %d, want the in-flight read to return 7", done, ret)
	}
}
