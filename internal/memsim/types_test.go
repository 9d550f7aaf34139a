package memsim

import (
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

func TestOpString(t *testing.T) {
	want := map[Op]string{
		OpRead:       "read",
		OpWrite:      "write",
		OpCAS:        "CAS",
		OpLL:         "LL",
		OpSC:         "SC",
		OpFetchAdd:   "FAA",
		OpFetchStore: "FAS",
		OpTestAndSet: "TAS",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if got := Op(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestAccessString(t *testing.T) {
	cases := map[string]Access{
		"read a3":       {Op: OpRead, Addr: 3},
		"write a1 <- 7": {Op: OpWrite, Addr: 1, Arg1: 7},
		"CAS a2 0->5":   {Op: OpCAS, Addr: 2, Arg1: 0, Arg2: 5},
		"FAA a4 += 2":   {Op: OpFetchAdd, Addr: 4, Arg1: 2},
		"FAS a5 <- 9":   {Op: OpFetchStore, Addr: 5, Arg1: 9},
		"TAS a6":        {Op: OpTestAndSet, Addr: 6},
	}
	for want, acc := range cases {
		if got := acc.String(); got != want {
			t.Errorf("Access.String() = %q, want %q", got, want)
		}
	}
}

func TestCallKindString(t *testing.T) {
	if CallPoll.String() != "Poll" || CallSignal.String() != "Signal" || CallWait.String() != "Wait" {
		t.Fatal("call kind names wrong")
	}
	if got := CallKind(77).String(); !strings.Contains(got, "77") {
		t.Errorf("unknown kind string = %q", got)
	}
}

// TestNoGoroutineLeaks: many executions, each left with every process
// mid-call, start no goroutine.
func TestNoGoroutineLeaks(t *testing.T) {
	probe := leakcheck.Run(func() {
		for i := 0; i < 50; i++ {
			e, err := NewExecution(counterFactory, 4)
			if err != nil {
				t.Fatal(err)
			}
			for pid := 0; pid < 4; pid++ {
				if err := e.Start(PID(pid), CallPoll); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Step(PID(pid)); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if n, stacks := probe.Alive(); n != 0 {
		t.Fatalf("executions left %d goroutines running:\n%s", n, stacks)
	}
}
