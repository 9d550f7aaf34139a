package signal

import (
	"fmt"
	"slices"

	"repro/internal/memsim"
)

// SpecViolation describes one breach of Specification 4.1 (or of the
// blocking-semantics requirement) detected in a trace.
type SpecViolation struct {
	// Rule identifies the violated clause.
	Rule string
	// PID and CallSeq identify the offending call.
	PID     memsim.PID
	CallSeq int
	// Detail is a human-readable explanation.
	Detail string
}

// Error renders the violation.
func (v SpecViolation) Error() string {
	return fmt.Sprintf("spec violation (%s) by p%d call %d: %s", v.Rule, v.PID, v.CallSeq, v.Detail)
}

// SpecChecker verifies Specification 4.1 incrementally: feed it every
// trace event in order (it is a natural memsim.EventSink) and Violations
// returns the breaches found so far. Its state is O(number of processes),
// so checking does not require retaining the trace.
type SpecChecker struct {
	firstSignalStart int // Seq of earliest Signal EvCallStart, -1 if none
	firstSignalEnd   int // Seq of earliest Signal EvCallEnd, -1 if none
	// The start Seq of each process's open call, indexed by PID: the
	// first len(inline) processes inline, the rest in more. A process
	// with no open call reads 0, which is also what a call end without a
	// start reads. Processes are numbered from 0; a negative PID never
	// has an open call.
	inline [8]int
	more   []int
	out    []SpecViolation
}

// NewSpecChecker returns a checker that has observed no events.
func NewSpecChecker() *SpecChecker {
	c := new(SpecChecker)
	c.Reset(0)
	return c
}

// Reset makes c a checker that has observed no events, with its open-call
// table sized once for processes 0..n-1: Observe then grows nothing for
// them. The table's storage is kept; a Violations slice returned before
// the reset is not, and stays with its holder.
func (c *SpecChecker) Reset(n int) {
	more := c.more[:0]
	if k := n - len(c.inline); k > 0 {
		more = slices.Grow(more, k)[:k]
		clear(more)
	}
	*c = SpecChecker{firstSignalStart: -1, firstSignalEnd: -1, more: more}
}

// openEntry returns p's entry in the open-call table, growing the table
// to cover p; nil for a negative PID.
func (c *SpecChecker) openEntry(p memsim.PID) *int {
	switch {
	case p < 0:
		return nil
	case int(p) < len(c.inline):
		return &c.inline[p]
	}
	i := int(p) - len(c.inline)
	if i >= len(c.more) {
		c.more = append(c.more, make([]int, i+1-len(c.more))...)
	}
	return &c.more[i]
}

// Observe folds one event into the checker.
func (c *SpecChecker) Observe(ev memsim.Event) {
	switch ev.Kind {
	case memsim.EvCallStart:
		if e := c.openEntry(ev.PID); e != nil {
			*e = ev.Seq
		}
		if ev.Proc == "Signal" && c.firstSignalStart < 0 {
			c.firstSignalStart = ev.Seq
		}
	case memsim.EvCallEnd:
		startSeq := 0
		if e := c.openEntry(ev.PID); e != nil {
			startSeq, *e = *e, 0
		}
		switch ev.Proc {
		case "Signal":
			if c.firstSignalEnd < 0 {
				c.firstSignalEnd = ev.Seq
			}
		case "Poll":
			if ev.Ret != 0 {
				if c.firstSignalStart < 0 || c.firstSignalStart > ev.Seq {
					c.out = append(c.out, SpecViolation{
						Rule: "poll-true", PID: ev.PID, CallSeq: ev.CallSeq,
						Detail: "Poll returned true but no Signal call had begun",
					})
				}
			} else {
				if c.firstSignalEnd >= 0 && c.firstSignalEnd < startSeq {
					c.out = append(c.out, SpecViolation{
						Rule: "poll-false", PID: ev.PID, CallSeq: ev.CallSeq,
						Detail: fmt.Sprintf("Poll returned false but a Signal call completed at seq %d before the poll began at seq %d", c.firstSignalEnd, startSeq),
					})
				}
			}
		case "Wait":
			if c.firstSignalStart < 0 || c.firstSignalStart > ev.Seq {
				c.out = append(c.out, SpecViolation{
					Rule: "wait-return", PID: ev.PID, CallSeq: ev.CallSeq,
					Detail: "Wait returned but no Signal call had begun",
				})
			}
		}
	case memsim.EvCrash:
		// A crashed call never returns, so it answers to no clause of the
		// specification; the restarted attempt opens a fresh call.
		if e := c.openEntry(ev.PID); e != nil {
			*e = 0
		}
	}
}

// Violations returns all breaches observed so far; nil means the events
// observed satisfy the specification.
func (c *SpecChecker) Violations() []SpecViolation { return c.out }

// CheckSpec verifies Specification 4.1 against a retained trace:
//
//  1. if some call to Poll() returns true, then some call to Signal() has
//     already begun, and
//  2. if some call to Poll() returns false, then no call to Signal()
//     completed before this call to Poll() began.
//
// For blocking algorithms it additionally checks that every completed
// Wait() returned only after some Signal() began. It returns all
// violations found; nil means the trace satisfies the specification.
// It is the batch form of SpecChecker.
func CheckSpec(events []memsim.Event) []SpecViolation {
	c := SpecChecker{firstSignalStart: -1, firstSignalEnd: -1}
	for _, ev := range events {
		c.Observe(ev)
	}
	return c.Violations()
}
