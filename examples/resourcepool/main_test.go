package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/sched"
)

// TestOutput runs the example and diffs its standard output against
// testdata/stdout.golden.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("output differs from testdata/stdout.golden:\n got:\n%s\n want:\n%s", got, want)
	}
}

// TestFrameCopiesContinueAlike runs the example's workload with each
// frame copied (CloneInto) before every step: the original and the copy
// are fed the same result and must issue the same access and return the
// same value, and the run continues from the copy. A copy that shared a
// lock section or the Poll or Signal sub-frame with its original would
// advance it twice and diverge.
func TestFrameCopiesContinueAlike(t *testing.T) {
	w := &pool{got: make(map[memsim.PID]memsim.Value)}
	if _, err := harness.Run(harness.Config{
		Workload:  forkingPool{w, t},
		Scheduler: sched.NewRandom(3),
		MaxSteps:  1_000_000,
		Sink:      w.observe,
	}); err != nil {
		t.Fatal(err)
	}
	if len(w.got) != consumers {
		t.Fatalf("%d consumers observed the resource, want %d", len(w.got), consumers)
	}
}

// forkingPool wraps every frame of the pool in a forkingFrame.
type forkingPool struct {
	*pool
	t *testing.T
}

func (w forkingPool) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	name, r, ok := w.pool.Next(pid)
	if !ok {
		return "", nil, false
	}
	return name, &forkingFrame{t: w.t, r: r}, true
}

type forkingFrame struct {
	t        *testing.T
	r, spare memsim.Resumable
}

func (f *forkingFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	f.spare = f.r.CloneInto(f.spare)
	acc, ok := f.r.Next(prev)
	cacc, cok := f.spare.Next(prev)
	if acc != cacc || ok != cok {
		f.t.Errorf("%T copy issued %v/%v, original %v/%v", f.r, cacc, cok, acc, ok)
	}
	f.r, f.spare = f.spare, f.r
	return acc, ok
}

func (f *forkingFrame) Return() memsim.Value {
	if a, b := f.r.Return(), f.spare.Return(); a != b {
		f.t.Errorf("%T copy returned %d, original %d", f.r, a, b)
	}
	return f.r.Return()
}

func (f *forkingFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
