package signal

import (
	"testing"

	"repro/internal/memsim"
)

func TestAllHaveDistinctNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if seen[a.Name] {
			t.Fatalf("duplicate algorithm name %q", a.Name)
		}
		seen[a.Name] = true
		if a.New == nil {
			t.Fatalf("%s has no factory", a.Name)
		}
		if a.Primitives == "" || a.Comment == "" {
			t.Fatalf("%s lacks documentation fields", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		got, err := ByName(a.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", a.Name, err)
		}
		if got.Name != a.Name {
			t.Fatalf("ByName(%q) returned %q", a.Name, got.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName should fail for unknown algorithm")
	}
}

func TestProgramSupportMatchesVariant(t *testing.T) {
	for _, a := range All() {
		exec, err := a.Deploy(4)
		if err != nil {
			t.Fatalf("%s: deploy: %v", a.Name, err)
		}
		inst := exec.Instance()
		_, pollErr := inst.ResumableProgram(0, memsim.CallPoll)
		if a.Variant.Polling && pollErr != nil {
			t.Errorf("%s: declared polling but Poll failed: %v", a.Name, pollErr)
		}
		if !a.Variant.Polling && pollErr == nil {
			t.Errorf("%s: Poll supported but not declared", a.Name)
		}
		_, waitErr := inst.ResumableProgram(0, memsim.CallWait)
		if a.Variant.Blocking && waitErr != nil {
			t.Errorf("%s: declared blocking but Wait failed: %v", a.Name, waitErr)
		}
		if !a.Variant.Blocking && waitErr == nil {
			t.Errorf("%s: Wait supported but not declared", a.Name)
		}
	}
}

func TestFixedSignalerEnforced(t *testing.T) {
	for _, a := range All() {
		if !a.Variant.FixedSignaler {
			continue
		}
		exec, err := a.Deploy(4)
		if err != nil {
			t.Fatalf("%s: deploy: %v", a.Name, err)
		}
		if _, err := exec.Instance().ResumableProgram(0, memsim.CallSignal); err == nil {
			t.Errorf("%s: Signal by a non-designated process should fail", a.Name)
		}
		if _, err := exec.Instance().ResumableProgram(3, memsim.CallSignal); err != nil {
			t.Errorf("%s: Signal by the designated process failed: %v", a.Name, err)
		}
	}
}

// TestSequentialSignalThenPoll checks the simplest sequential history on
// every polling algorithm: Signal completes, then every waiter's next Poll
// must return true (clause 2 of Specification 4.1 read contrapositively).
func TestSequentialSignalThenPoll(t *testing.T) {
	for _, a := range All() {
		a := a
		if !a.Variant.Polling {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			n := 5
			exec, err := a.Deploy(n)
			if err != nil {
				t.Fatal(err)
			}
			waiters := []memsim.PID{0, 1}
			if a.Variant.Waiters == 1 {
				waiters = waiters[:1]
			}
			if a.Variant.FixedWaiters {
				// The terminating fixed-waiters Signal blocks until every
				// fixed waiter participates, so all of them must poll.
				waiters = nil
				for i := 0; i < n-1; i++ {
					waiters = append(waiters, memsim.PID(i))
				}
			}
			// Waiters poll once before the signal (false expected).
			for _, w := range waiters {
				ret, err := exec.Invoke(w, memsim.CallPoll, 10_000)
				if err != nil {
					t.Fatalf("pre-signal poll by %d: %v", w, err)
				}
				if ret != 0 {
					t.Fatalf("pre-signal poll by %d returned true", w)
				}
			}
			sig := memsim.PID(n - 1)
			if _, err := exec.Invoke(sig, memsim.CallSignal, 100_000); err != nil {
				t.Fatalf("signal: %v", err)
			}
			for _, w := range waiters {
				ret, err := exec.Invoke(w, memsim.CallPoll, 10_000)
				if err != nil {
					t.Fatalf("post-signal poll by %d: %v", w, err)
				}
				if ret == 0 {
					t.Fatalf("post-signal poll by %d returned false", w)
				}
			}
			if vs := CheckSpec(exec.Events()); len(vs) > 0 {
				t.Fatalf("spec violations: %v", vs)
			}
		})
	}
}

// TestPollBeforeAnySignal checks that polls return false while no signal
// was ever issued.
func TestPollBeforeAnySignal(t *testing.T) {
	for _, a := range All() {
		if !a.Variant.Polling {
			continue
		}
		exec, err := a.Deploy(4)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for i := 0; i < 3; i++ {
			ret, err := exec.Invoke(0, memsim.CallPoll, 10_000)
			if err != nil {
				t.Fatalf("%s: poll %d: %v", a.Name, i, err)
			}
			if ret != 0 {
				t.Fatalf("%s: poll %d returned true with no signal", a.Name, i)
			}
		}
	}
}
