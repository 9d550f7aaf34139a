package worksteal

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDequeOrder: the owner pops LIFO at the bottom while thieves steal
// FIFO at the top.
func TestDequeOrder(t *testing.T) {
	d := &deque{}
	d.push(Task{1})
	d.push(Task{2})
	d.push(Task{3})
	if got, ok := d.popBottom(); !ok || got[0] != 3 {
		t.Fatalf("popBottom = %v, want [3]", got)
	}
	if got, ok := d.stealTop(); !ok || got[0] != 1 {
		t.Fatalf("stealTop = %v, want [1]", got)
	}
	if got, ok := d.popBottom(); !ok || got[0] != 2 {
		t.Fatalf("popBottom = %v, want [2]", got)
	}
	if _, ok := d.popBottom(); ok {
		t.Fatal("popBottom on empty deque succeeded")
	}
	if _, ok := d.stealTop(); ok {
		t.Fatal("stealTop on empty deque succeeded")
	}
}

// TestWorkDrainsAndTerminates: tasks submitted from within tasks are all
// executed exactly once across stealing workers, and every worker's loop
// exits once the frontier drains.
func TestWorkDrainsAndTerminates(t *testing.T) {
	const workers, fanout, depth = 4, 3, 4
	f := New(workers)
	var ran atomic.Int64
	var wg sync.WaitGroup
	f.Submit(0, Task{})
	for id := 0; id < workers; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Work(id, func() bool { return false }, func(t Task) {
				ran.Add(1)
				if len(t) < depth {
					for i := 0; i < fanout; i++ {
						child := append(append(Task{}, t...), i)
						f.Submit(id, child)
					}
				}
			})
		}()
	}
	wg.Wait()
	want := int64(0)
	for d, n := 0, 1; d <= depth; d, n = d+1, n*fanout {
		want += int64(n) // full fanout-ary tree of the given depth
	}
	if ran.Load() != want {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), want)
	}
}

// TestWorkStops: a true stop signal ends every loop promptly even with
// tasks still queued.
func TestWorkStops(t *testing.T) {
	f := New(2)
	for i := 0; i < 100; i++ {
		f.Submit(0, Task{i})
	}
	var stop atomic.Bool
	var ran atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Work(id, stop.Load, func(Task) {
				ran.Add(1)
				stop.Store(true)
			})
		}()
	}
	wg.Wait()
	if ran.Load() == 0 || ran.Load() > 2 {
		t.Fatalf("ran %d tasks after stop, want 1..2", ran.Load())
	}
}

// TestEachRunsEveryIndexOnce: every index in [0, n) runs exactly once for
// any worker count, including 0 (clamped up to 1) and more workers than
// indices (clamped down to n).
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{-1, 0, 1, 3, n, 4 * n} {
		counts := make([]atomic.Int32, n)
		Each(context.Background(), workers, n, func(i int) bool {
			counts[i].Add(1)
			return false
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, c)
			}
		}
	}
	Each(context.Background(), 4, 0, func(int) bool {
		t.Fatal("run called with n = 0")
		return false
	})
}

// TestEachOneWorkerRunsInOrder: a single worker is the caller itself, so
// the indices run one after another in increasing order.
func TestEachOneWorkerRunsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var order []int
		Each(context.Background(), workers, 10, func(i int) bool {
			order = append(order, i)
			return false
		})
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(order, want) {
			t.Fatalf("workers=%d: order %v, want %v", workers, order, want)
		}
	}
}

// TestEachClampsWorkersToN: asking for far more workers than indices
// starts no goroutine beyond the n-1 that join the caller.
func TestEachClampsWorkersToN(t *testing.T) {
	const n = 3
	var ready sync.WaitGroup
	ready.Add(n)
	before := runtime.NumGoroutine()
	seen := make([]int, n)
	Each(context.Background(), 64, n, func(i int) bool {
		seen[i] = runtime.NumGoroutine()
		ready.Done()
		ready.Wait() // all n runs are in flight at once
		return false
	})
	if extra := slices.Max(seen) - before; extra > n-1 {
		t.Fatalf("%d goroutines beyond the caller's, want at most %d", extra, n-1)
	}
}

// TestEachStopsDispatch: once a run returns true no further index is
// handed out — exactly the prefix up to the stopping run on one worker,
// and at most one run per worker when every run stops.
func TestEachStopsDispatch(t *testing.T) {
	var ran []int
	Each(context.Background(), 1, 100, func(i int) bool {
		ran = append(ran, i)
		return i == 5
	})
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	const workers = 4
	var count atomic.Int64
	Each(context.Background(), workers, 100, func(int) bool {
		count.Add(1)
		return true
	})
	if c := count.Load(); c < 1 || c > workers {
		t.Fatalf("%d runs after every run stopped, want 1..%d", c, workers)
	}
}

// TestEachHonoursContext: a cancelled context runs nothing, and a
// cancellation mid-run stops dispatch after the run that cancelled.
func TestEachHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		Each(ctx, workers, 100, func(int) bool {
			t.Fatalf("workers=%d: run called on a cancelled context", workers)
			return false
		})
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	Each(ctx, 1, 100, func(i int) bool {
		ran = append(ran, i)
		if i == 2 {
			cancel()
		}
		return false
	})
	if want := []int{0, 1, 2}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}
