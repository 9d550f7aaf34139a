package signal

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/memsim"
)

// TestFrameGolden pins what every signaling algorithm does on the default
// memsim.Execution path. Rows cover each algorithm of All(), Blockified(a)
// for every polling a, each procedure the variant provides (Poll, Wait)
// and three seeded schedules that also crash processes (stable and owned
// memory) and drop the responses of succeeding CASes. A row records the
// event count and the sha256 of the trace (sequence numbers included) and
// of the final memory. testdata/framegolden.golden is a fixed reference:
// a difference means an algorithm's access sequence changed.
func TestFrameGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/framegolden.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := goldenRows(t)
	for i := range got {
		if i >= len(want) {
			t.Fatalf("row %d not in golden: %s", i, got[i])
		}
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n got:  %s\n want: %s", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d rows, run produced %d", len(want), len(got))
	}
}

// goldenRows runs every (algorithm, procedure, seed) row.
func goldenRows(t *testing.T) []string {
	t.Helper()
	algs := All()
	for _, a := range All() {
		if a.Variant.Polling {
			algs = append(algs, Blockified(a))
		}
	}
	var rows []string
	for _, alg := range algs {
		var kinds []memsim.CallKind
		if alg.Variant.Polling {
			kinds = append(kinds, memsim.CallPoll)
		}
		if alg.Variant.Blocking {
			kinds = append(kinds, memsim.CallWait)
		}
		for _, kind := range kinds {
			for seed := int64(1); seed <= 3; seed++ {
				rows = append(rows, goldenRow(t, alg, kind, seed))
			}
		}
	}
	return rows
}

// goldenScripts is the contended workload of a row on 4 processes: two
// waiters (one for the single-waiter variant) making three Polls or one
// Wait each, a signaler at p3, and a second racing signaler at p2 when the
// variant does not fix the signaler.
func goldenScripts(alg Algorithm, kind memsim.CallKind) (int, map[memsim.PID][]memsim.CallKind) {
	const n = 4
	scripts := make(map[memsim.PID][]memsim.CallKind)
	waiters := []memsim.PID{0, 1}
	if alg.Variant.Waiters == 1 {
		waiters = waiters[:1]
	}
	calls := 3
	if kind == memsim.CallWait {
		calls = 1
	}
	for _, w := range waiters {
		for i := 0; i < calls; i++ {
			scripts[w] = append(scripts[w], kind)
		}
	}
	scripts[n-1] = []memsim.CallKind{memsim.CallSignal}
	if !alg.Variant.FixedSignaler {
		scripts[n-2] = []memsim.CallKind{memsim.CallSignal}
	}
	return n, scripts
}

// goldenRow drives one seeded schedule and renders its row. Each step
// picks a process with a pending access; while the schedule has injected
// fewer than two faults, the pick is sometimes crashed (its scripted call
// restarts later) or, on a CAS that would succeed, applied with its
// response lost. A completed Poll that returns true ends its waiter's
// script. The run stops when no process has a pending access or after
// 3000 steps.
func goldenRow(t *testing.T, alg Algorithm, kind memsim.CallKind, seed int64) string {
	t.Helper()
	n, scripts := goldenScripts(alg, kind)
	exec, err := alg.Deploy(n)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	rng := rand.New(rand.NewSource(seed))
	progress := make([]int, n)
	current := make([]memsim.CallKind, n)
	faults := 0
	for steps := 0; steps < 3000; steps++ {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			p := memsim.PID(i)
			script, ok := scripts[p]
			if !ok {
				continue
			}
			if _, done := exec.CallEnded(p); done {
				ret, err := exec.Finish(p)
				if err != nil {
					t.Fatal(err)
				}
				if current[p] == memsim.CallPoll && ret != 0 {
					progress[p] = len(script)
				}
			}
			if exec.Idle(p) && progress[p] < len(script) {
				current[p] = script[progress[p]]
				if err := exec.Start(p, current[p]); err != nil {
					t.Fatalf("%s: start %v on p%d: %v", alg.Name, current[p], p, err)
				}
				progress[p]++
			}
			if _, ok := exec.Pending(p); ok {
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			break
		}
		p := ready[rng.Intn(len(ready))]
		acc, _ := exec.Pending(p)
		r := rng.Intn(30)
		switch {
		case faults < 2 && r == 0:
			_, err = exec.Crash(p, memsim.VolOwned)
			progress[p]--
			faults++
		case faults < 2 && r == 1:
			_, err = exec.Crash(p, memsim.VolStable)
			progress[p]--
			faults++
		case faults < 2 && r < 8 && acc.Op == memsim.OpCAS && exec.Machine().Load(acc.Addr) == acc.Arg1:
			_, err = exec.StepLostCAS(p)
			faults++
		default:
			_, err = exec.Step(p)
		}
		if err != nil {
			t.Fatalf("%s %v seed %d: %v", alg.Name, kind, seed, err)
		}
	}
	events := exec.Events()
	return fmt.Sprintf("%s %v seed=%d events=%d trace=%x memory=%x",
		alg.Name, kind, seed, len(events), goldenTraceSum(events), goldenMemorySum(exec.Machine()))
}

// goldenTraceSum hashes every field of every event, one line per event.
func goldenTraceSum(events []memsim.Event) []byte {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "%d %d %d %d %s %d %d %d %d %d %t %t %d %d\n",
			ev.Seq, ev.Kind, ev.PID, ev.CallSeq, ev.Proc,
			ev.Acc.Op, ev.Acc.Addr, ev.Acc.Arg1, ev.Acc.Arg2,
			ev.Res.Val, ev.Res.OK, ev.Res.Wrote, ev.Ret, ev.Fault)
	}
	return h.Sum(nil)
}

// goldenMemorySum hashes the machine's words, one value per line.
func goldenMemorySum(m *memsim.Machine) []byte {
	h := sha256.New()
	for _, v := range m.Snapshot() {
		fmt.Fprintf(h, "%d\n", v)
	}
	return h.Sum(nil)
}
