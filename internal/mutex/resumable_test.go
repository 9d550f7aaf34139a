package mutex

import (
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sched"
)

// TestLockEngineTraceEquivalence runs every lock's contended workload
// twice under identical schedules: once on plain passage frames, and once
// with each passage frame copied (memsim.CloneResumableInto) at every
// scheduling point and both copies advanced. The copy must issue the
// original's access at every step and return its value, and the two runs
// must produce byte-identical traces and verdicts — the frame discipline
// the backtracking engines' snapshots rely on, checked on every lock's
// sections.
func TestLockEngineTraceEquivalence(t *testing.T) {
	for _, alg := range All() {
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				run := func(fork bool) (*harness.Result, *Workload) {
					w := NewWorkload(alg, 4, 3)
					var hw harness.Workload = w
					if fork {
						hw = forkingWorkload{w, t}
					}
					res, err := harness.Run(harness.Config{
						Workload:   hw,
						Scheduler:  sched.NewRandom(seed),
						MaxSteps:   200_000,
						KeepEvents: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res, w
				}
				plain, pw := run(false)
				forked, fw := run(true)
				if !reflect.DeepEqual(plain.Events, forked.Events) {
					for i := range plain.Events {
						if i >= len(forked.Events) || plain.Events[i] != forked.Events[i] {
							t.Fatalf("seed %d: traces diverge at event %d:\n plain:  %+v\n forked: %+v",
								seed, i, plain.Events[i], forked.Events[i])
						}
					}
					t.Fatalf("seed %d: trace lengths differ (%d vs %d)",
						seed, len(plain.Events), len(forked.Events))
				}
				if pw.CompletedPassages() != fw.CompletedPassages() ||
					pw.MutualExclusion() != fw.MutualExclusion() {
					t.Fatalf("seed %d: verdicts differ: plain %d/%v, forked %d/%v",
						seed, pw.CompletedPassages(), pw.MutualExclusion(),
						fw.CompletedPassages(), fw.MutualExclusion())
				}
				if !pw.MutualExclusion() || pw.CompletedPassages() != 12 {
					t.Fatalf("seed %d: %d passages, mutual exclusion %v", seed, pw.CompletedPassages(), pw.MutualExclusion())
				}
			}
		})
	}
}

// forkingWorkload wraps every passage frame in a forkingFrame.
type forkingWorkload struct {
	*Workload
	t *testing.T
}

func (w forkingWorkload) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	name, r, ok := w.Workload.Next(pid)
	if !ok {
		return "", nil, false
	}
	return name, &forkingFrame{t: w.t, r: r}, true
}

// forkingFrame copies its frame into spare before each step, advances
// both with the same result, checks that they agree, and continues from
// the copy. Copies that shared state with the original (a sub-frame
// reached through both) would advance it twice and diverge.
type forkingFrame struct {
	t        *testing.T
	r, spare memsim.Resumable
}

func (f *forkingFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	f.spare = memsim.CloneResumableInto(f.spare, f.r)
	acc, ok := f.r.Next(prev)
	cacc, cok := f.spare.Next(prev)
	if acc != cacc || ok != cok {
		f.t.Errorf("copy issued %v/%v, original %v/%v", cacc, cok, acc, ok)
	}
	f.r, f.spare = f.spare, f.r
	return acc, ok
}

func (f *forkingFrame) Return() memsim.Value {
	if a, b := f.r.Return(), f.spare.Return(); a != b {
		f.t.Errorf("copy returned %d, original %d", a, b)
	}
	return f.r.Return()
}

func (f *forkingFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// TestPassageFrameSolo drives a single-process passage frame to completion
// through a bare controller, checking the resumable probe's verdict and
// counter bookkeeping without any scheduler in the loop.
func TestPassageFrameSolo(t *testing.T) {
	m := memsim.NewMachine(1)
	lock, err := MCS().New(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	var pr CSProbe
	pr.DeployProbe(m, lock)
	ctl := memsim.NewController(m)
	frame := pr.PassageFrame(nil, 0)
	if err := ctl.StartResumable(0, "passage", frame); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if ret, done := ctl.CallEnded(0); done {
			if ret != 1 {
				t.Fatalf("solo passage verdict = %d, want 1", ret)
			}
			break
		}
		if i > 100 {
			t.Fatal("passage did not complete in 100 steps")
		}
		if _, err := ctl.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Load(pr.csCount); got != 1 {
		t.Fatalf("csCount = %d, want 1", got)
	}
}
