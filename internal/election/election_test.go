package election

import (
	"math/rand"
	"testing"

	"repro/internal/memsim"
)

func runElection(t *testing.T, n int, seed int64) map[memsim.PID]memsim.PID {
	t.Helper()
	m := memsim.NewMachine(n)
	e := New(m, "L")
	ctl := memsim.NewController(m)
	defer ctl.Close()

	results := make(map[memsim.PID]memsim.PID, n)
	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		f := e.Elect(pid)
		if err := ctl.StartResumable(pid, "elect", &f); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			pid := memsim.PID(i)
			if ret, done := ctl.CallEnded(pid); done {
				if _, err := ctl.FinishCall(pid); err != nil {
					t.Fatal(err)
				}
				results[pid] = memsim.PID(ret)
			}
			if _, ok := ctl.Pending(pid); ok {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			break
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// TestElectionAgreement: every participant learns the same leader, and the
// leader is a participant — the property signal.LeaderBlocking requires.
func TestElectionAgreement(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		results := runElection(t, 6, seed)
		if len(results) != 6 {
			t.Fatalf("seed %d: %d results", seed, len(results))
		}
		leader := results[0]
		for pid, got := range results {
			if got != leader {
				t.Fatalf("seed %d: p%d learned leader %d, p0 learned %d", seed, pid, got, leader)
			}
		}
		if int(leader) < 0 || int(leader) >= 6 {
			t.Fatalf("seed %d: leader %d out of range", seed, leader)
		}
	}
}

func runSplitter(t *testing.T, n int, seed int64) map[memsim.PID]SplitterOutcome {
	t.Helper()
	m := memsim.NewMachine(n)
	s := NewSplitter(m, "S")
	ctl := memsim.NewController(m)
	defer ctl.Close()

	results := make(map[memsim.PID]SplitterOutcome, n)
	for i := 0; i < n; i++ {
		pid := memsim.PID(i)
		if err := ctl.StartResumable(pid, "split", s.Run(pid)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			pid := memsim.PID(i)
			if ret, done := ctl.CallEnded(pid); done {
				if _, err := ctl.FinishCall(pid); err != nil {
					t.Fatal(err)
				}
				results[pid] = SplitterOutcome(ret)
			}
			if _, ok := ctl.Pending(pid); ok {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			break
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// TestSplitterAtMostOneWinner: the read/write splitter admits at most one
// winner under every schedule tried (and a solo run always wins).
func TestSplitterAtMostOneWinner(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		results := runSplitter(t, 5, seed)
		winners := 0
		for _, o := range results {
			if o == SplitWin {
				winners++
			}
		}
		if winners > 1 {
			t.Fatalf("seed %d: %d winners", seed, winners)
		}
	}
	solo := runSplitter(t, 1, 1)
	if solo[0] != SplitWin {
		t.Fatal("solo splitter traversal must win")
	}
}
