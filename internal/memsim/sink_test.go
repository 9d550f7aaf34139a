package memsim

import (
	"reflect"
	"testing"
)

// sinkInstance is a two-process toy: Poll reads a word, Signal writes it.
type sinkInstance struct{ a Addr }

func (in sinkInstance) ProgramInto(dst Resumable, pid PID, kind CallKind) (Resumable, error) {
	switch kind {
	case CallPoll:
		return BuildFrame(dst, readFrame{addr: in.a}), nil
	case CallSignal:
		return writeOnce(in.a, 1), nil
	default:
		return nil, ErrNoProgram
	}
}

func sinkFactory(m *Machine, n int) (Instance, error) {
	return sinkInstance{a: m.Alloc(NoOwner, "A", 1, 0)}, nil
}

func driveSinkRun(t *testing.T, e *Execution) {
	t.Helper()
	if _, err := e.Invoke(0, CallPoll, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke(1, CallSignal, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Invoke(0, CallPoll, 10); err != nil {
		t.Fatal(err)
	}
}

// TestSinkSeesRetainedEvents: an attached sink must observe exactly the
// event sequence the retained log records, in order.
func TestSinkSeesRetainedEvents(t *testing.T) {
	e, err := NewExecution(sinkFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seen []Event
	e.Attach(func(ev Event) { seen = append(seen, ev) })
	driveSinkRun(t, e)
	if len(seen) == 0 {
		t.Fatal("sink observed nothing")
	}
	if !reflect.DeepEqual(seen, e.Events()) {
		t.Fatalf("sink saw %d events, log has %d; sequences differ", len(seen), len(e.Events()))
	}
}

// TestRetainEventsOff: with retention off the log stays empty while sinks
// still observe the full stream with correct sequence numbers.
func TestRetainEventsOff(t *testing.T) {
	e, err := NewExecution(sinkFactory, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.RetainEvents(false)
	var seen []Event
	e.Attach(func(ev Event) { seen = append(seen, ev) })
	driveSinkRun(t, e)
	if got := e.Events(); len(got) != 0 {
		t.Fatalf("retention off but %d events retained", len(got))
	}
	if len(seen) == 0 {
		t.Fatal("sink observed nothing")
	}
	for i, ev := range seen {
		if ev.Seq != i {
			t.Fatalf("event %d has Seq %d; numbering must not depend on retention", i, ev.Seq)
		}
	}

	// The same schedule with retention on yields the identical stream:
	// retention is an output knob, not a semantic one.
	ref, err := Replay(sinkFactory, 2, e.Actions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, ref.Events()) {
		t.Fatal("streamed events differ from the retained replay")
	}
}
