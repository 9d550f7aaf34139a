package mutex_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gme"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/semisync"
)

// TestLockGolden pins what every lock section does. Rows cover each lock
// of mutex.All() at N ∈ {2, 3, 5} under seeds 1–3, the GME room at
// N ∈ {3, 4} with two sessions, and Fischer's lock timed and untimed at
// Δ ∈ {2, 4}. A row records the event count and the sha256 of the trace
// (sequence numbers included) and of the final memory.
// testdata/lockgolden.golden is a fixed reference: a difference means a
// lock's access sequence changed.
func TestLockGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/lockgolden.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := lockGoldenRows(t)
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

// lockGoldenRows runs every row in golden order.
func lockGoldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, alg := range mutex.All() {
		for _, n := range []int{2, 3, 5} {
			for seed := int64(1); seed <= 3; seed++ {
				w := mutex.NewWorkload(alg, n, 3)
				rows = append(rows, goldenRow(t, fmt.Sprintf("%s n=%d seed=%d", alg.Name, n, seed),
					w, sched.NewRandom(seed), 1_000_000, func() []memsim.Event {
						res, err := mutex.Run(mutex.RunConfig{Lock: alg, N: n, Passages: 3, Scheduler: sched.NewRandom(seed), KeepEvents: true})
						if res == nil {
							t.Fatal(err)
						}
						return runEvents(t, res.Result, err)
					}))
			}
		}
	}
	for _, n := range []int{3, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			w := gme.NewWorkload(n, 2, 2)
			rows = append(rows, goldenRow(t, fmt.Sprintf("gme n=%d sessions=2 seed=%d", n, seed),
				w, sched.NewRandom(seed), 2_000_000, func() []memsim.Event {
					res, err := gme.Run(gme.RunConfig{N: n, Sessions: 2, Entries: 2, Scheduler: sched.NewRandom(seed), KeepEvents: true})
					if res == nil {
						t.Fatal(err)
					}
					return runEvents(t, res.Result, err)
				}))
		}
	}
	for _, timed := range []bool{true, false} {
		for _, delta := range []int{2, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				var s sched.Scheduler = sched.NewRandom(seed)
				if timed {
					s = semisync.NewScheduler(delta, s)
				}
				w := semisync.NewWorkload(3, delta, 2)
				rows = append(rows, goldenRow(t, fmt.Sprintf("fischer timed=%v delta=%d seed=%d", timed, delta, seed),
					w, s, 2_000_000, func() []memsim.Event {
						res, err := semisync.Run(semisync.RunConfig{N: 3, Delta: delta, Passages: 2, Timed: timed, Seed: seed, KeepEvents: true})
						if res == nil {
							t.Fatal(err)
						}
						return runEvents(t, res.Result, err)
					}))
			}
		}
	}
	return rows
}

// runEvents returns the retained trace of a finished public Run.
func runEvents(t *testing.T, res *harness.Result, err error) []memsim.Event {
	t.Helper()
	if err != nil && !errors.Is(err, harness.ErrBudget) {
		t.Fatal(err)
	}
	return res.Events
}

// recorder keeps the machine a workload ran on, so a row can hash the
// final memory, and passes the workload's Verify through.
type recorder struct {
	harness.Workload
	m *memsim.Machine
}

// Verify implements harness.Verifier; the harness calls it once, after
// the last step.
func (r *recorder) Verify(m *memsim.Machine, truncated bool) {
	r.m = m
	if v, ok := r.Workload.(harness.Verifier); ok {
		v.Verify(m, truncated)
	}
}

// goldenRow drives w on the harness (as the package's Run does) and
// renders its row. The row's trace must equal the one the public Run
// retains for the same configuration.
func goldenRow(t *testing.T, name string, w harness.Workload, s sched.Scheduler, maxSteps int, public func() []memsim.Event) string {
	t.Helper()
	rec := &recorder{Workload: w}
	res, err := harness.Run(harness.Config{
		Workload:   rec,
		Scheduler:  s,
		MaxSteps:   maxSteps,
		KeepEvents: true,
	})
	events := runEvents(t, res, err)
	trace := goldenTraceSum(events)
	if pub := goldenTraceSum(public()); string(pub) != string(trace) {
		t.Fatalf("%s: the public Run's trace differs from the harness run's", name)
	}
	return fmt.Sprintf("%s events=%d trace=%x memory=%x", name, len(events), trace, goldenMemorySum(rec.m))
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
