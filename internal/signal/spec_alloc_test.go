package signal

import (
	"reflect"
	"testing"

	"repro/internal/memsim"
)

// fiveProcessTrace is a clean history of five processes: four pollers
// whose calls overlap one Signal, then a second round of polls that see it.
func fiveProcessTrace() []memsim.Event {
	var evs []memsim.Event
	seq := 0
	add := func(ev memsim.Event) {
		ev.Seq = seq
		seq++
		evs = append(evs, ev)
	}
	for p := memsim.PID(0); p < 4; p++ {
		add(callStart(0, p, "Poll"))
	}
	add(callStart(0, 4, "Signal"))
	for p := memsim.PID(0); p < 4; p++ {
		add(callEnd(0, p, "Poll", 0))
	}
	add(callEnd(0, 4, "Signal", 0))
	for p := memsim.PID(0); p < 4; p++ {
		add(callStart(0, p, "Poll"))
		add(callEnd(0, p, "Poll", 1))
	}
	return evs
}

// TestCheckSpecAllocs pins the per-leaf Specification 4.1 check of the
// explorer: checking a five-process trace allocates at most once.
func TestCheckSpecAllocs(t *testing.T) {
	evs := fiveProcessTrace()
	if vs := CheckSpec(evs); len(vs) != 0 {
		t.Fatalf("clean five-process trace flagged: %v", vs)
	}
	if n := testing.AllocsPerRun(100, func() { CheckSpec(evs) }); n > 1 {
		t.Errorf("CheckSpec allocates %v per call, want <= 1", n)
	}
}

// TestCheckSpecManyProcesses: PIDs beyond the inline table keep their
// open-call start, so a poll that began after a Signal completed is still
// caught there, and an overlapping one is still allowed.
func TestCheckSpecManyProcesses(t *testing.T) {
	events := []memsim.Event{
		callStart(0, 20, "Poll"),
		callStart(1, 3, "Signal"),
		callEnd(2, 3, "Signal", 0),
		callStart(3, 11, "Poll"),
		callEnd(4, 11, "Poll", 0),
		callEnd(5, 20, "Poll", 0),
	}
	vs := CheckSpec(events)
	if len(vs) != 1 || vs[0].Rule != "poll-false" || vs[0].PID != 11 {
		t.Fatalf("violations = %v, want one poll-false by p11", vs)
	}
}

// TestSpecCheckerReset: a checker reset for n processes after checking
// another history, one that left a call open, finds exactly what a fresh
// checker finds, including for a PID past n, a negative PID and a call
// end with no start, and observes a history of processes below n without
// allocating.
func TestSpecCheckerReset(t *testing.T) {
	events := []memsim.Event{
		callStart(0, 20, "Poll"),
		callStart(1, -1, "Poll"),
		callEnd(2, 7, "Poll", 0), // no start: read as begun at seq 0
		callStart(3, 3, "Signal"),
		callEnd(4, 3, "Signal", 0),
		callStart(5, 11, "Poll"),
		callEnd(6, 11, "Poll", 0),
		callEnd(7, 20, "Poll", 0),
		callEnd(8, -1, "Poll", 0),
		callEnd(9, 5, "Poll", 0), // no start, so not after the Signal
		callEnd(10, 30, "Poll", 0),
	}
	want := CheckSpec(events)
	if len(want) != 1 || want[0].PID != 11 {
		t.Fatalf("fresh checker found %v, want one poll-false by p11", want)
	}
	c := new(SpecChecker)
	c.Reset(0)
	for _, ev := range fiveProcessTrace() {
		c.Observe(ev)
	}
	c.Observe(callStart(100, 30, "Poll")) // left open across the resets
	kept := c.Violations()
	for _, n := range []int{40, 16, 4} {
		c.Reset(n)
		for _, ev := range events {
			c.Observe(ev)
		}
		if got := c.Violations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset for n=%d: violations = %v, want %v", n, got, want)
		}
	}
	if len(kept) != 0 {
		t.Fatalf("a reset changed the violations handed out before it: %v", kept)
	}
	evs := fiveProcessTrace()
	if n := testing.AllocsPerRun(100, func() {
		c.Reset(16)
		for _, ev := range evs {
			c.Observe(ev)
		}
	}); n != 0 {
		t.Errorf("a reset checker allocates %v times on a clean history, want 0", n)
	}
}
