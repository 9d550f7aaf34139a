package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

// batchConfigs builds a mixed batch of deterministic configs. Each config
// carries its own scheduler instance, so runs never share mutable state.
func batchConfigs(t testing.TB, count int) []Config {
	t.Helper()
	algNames := []string{"flag", "queue", "cas-register", "fixed-waiters"}
	cfgs := make([]Config, 0, count)
	for i := 0; i < count; i++ {
		alg, err := AlgorithmByName(algNames[i%len(algNames)])
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, Config{
			Algorithm:   alg,
			N:           4 + 2*(i%3),
			MaxPolls:    8 + i,
			SignalAfter: 10 + i,
			Scheduler:   sched.NewRandom(int64(i + 1)),
		})
	}
	return cfgs
}

// TestRunnerStreamingMatchesRetainedTrace: the Runner's single-pass
// reports must equal what a run that retains its trace computes after the
// fact.
func TestRunnerStreamingMatchesRetainedTrace(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: alg, N: 8, MaxPolls: 32, SignalAfter: 40}

	r := NewRunner(WithModels(StandardModels()...))
	res, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Fatalf("runner retained %d events without WithTrace", len(res.Events))
	}
	if len(res.Reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(res.Reports))
	}

	retained, err := NewRunner(WithTrace(true)).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if retained.Events == nil {
		t.Fatal("the WithTrace run retained no events")
	}
	for i, m := range StandardModels() {
		if got, want := res.Reports[i], retained.Score(m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming %+v != batch score of the retained trace %+v", m.Name(), got, want)
		}
	}
}

// TestRunnerWithTrace: WithTrace restores full retention through the new
// facade.
func TestRunnerWithTrace(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithTrace(true), WithModels(CC))
	res, err := r.Run(Config{Algorithm: alg, N: 4, MaxPolls: 8, SignalAfter: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("WithTrace(true) retained no events")
	}
	// With the trace retained, Score can price models that were never
	// attached.
	if rep := res.Score(DSM); rep == nil || rep.Total == 0 {
		t.Fatalf("post-hoc DSM score = %+v", rep)
	}
}

// TestRunManyDeterministicAcrossWorkers: the same batch must produce
// identical per-config reports whatever the worker count.
func TestRunManyDeterministicAcrossWorkers(t *testing.T) {
	runBatch := func(workers int) []*Result {
		r := NewRunner(WithModels(CC, DSM), WithWorkers(workers))
		results, err := r.RunMany(context.Background(), batchConfigs(t, 12))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results
	}
	base := runBatch(1)
	for _, workers := range []int{2, 4, 8} {
		got := runBatch(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if base[i] == nil || got[i] == nil {
				t.Fatalf("workers=%d: nil result at %d", workers, i)
			}
			if !reflect.DeepEqual(got[i].Reports, base[i].Reports) {
				t.Errorf("workers=%d config %d: reports differ\n got %+v\nwant %+v",
					workers, i, got[i].Reports, base[i].Reports)
			}
			if got[i].Steps != base[i].Steps || got[i].Signaled != base[i].Signaled {
				t.Errorf("workers=%d config %d: steps/signaled differ", workers, i)
			}
		}
	}
}

// TestRunManyCancellation: cancelling the context mid-batch returns
// promptly with partial results and ctx.Err().
func TestRunManyCancellation(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	// The first configs finish in well under the cancellation delay; the
	// rest poll into the void for a step budget large enough that an
	// uncancelled batch would take far longer than the cancellation point.
	cfgs := make([]Config, 16)
	for i := range cfgs {
		steps := 300_000
		if i < 4 {
			steps = 1_000
		}
		cfgs[i] = Config{
			Algorithm:  alg,
			N:          4,
			NoSignaler: true,
			MaxPolls:   0,
			MaxSteps:   steps,
			Scheduler:  sched.NewRandom(int64(i + 1)),
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	r := NewRunner(WithModels(DSM), WithWorkers(2))
	start := time.Now()
	results, err := r.RunMany(ctx, cfgs)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(cfgs) {
		t.Fatalf("got %d result slots, want %d", len(results), len(cfgs))
	}
	missing, completed := 0, 0
	for _, res := range results {
		if res == nil {
			missing++
		} else {
			completed++
		}
	}
	if missing == 0 {
		t.Fatal("cancellation mid-batch left no config unfinished")
	}
	if completed == 0 {
		t.Fatal("no config completed before cancellation; partial results expected")
	}
	// Prompt return: interrupts fire between steps, so the batch must end
	// well before the ~14 remaining runs could have executed.
	if elapsed > 5*time.Second {
		t.Fatalf("RunMany returned after %v, want prompt cancellation", elapsed)
	}
	t.Logf("cancelled after %v: %d completed, %d unfinished of %d",
		elapsed, completed, missing, len(cfgs))
}

// TestRunManyPreCancelled: an already-cancelled context runs nothing.
func TestRunManyPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(WithWorkers(4))
	results, err := r.RunMany(ctx, batchConfigs(t, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("config %d ran despite pre-cancelled context", i)
		}
	}
}

// TestRunnerSchedulerFactory: WithScheduler mints a fresh scheduler per
// run for configs without one.
func TestRunnerSchedulerFactory(t *testing.T) {
	alg, err := AlgorithmByName("queue")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(
		WithModels(DSM),
		WithScheduler(func() Scheduler { return sched.NewRandom(7) }),
	)
	cfg := Config{Algorithm: alg, N: 6, MaxPolls: 10, SignalAfter: 12}
	a, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Reports, b.Reports) || a.Steps != b.Steps {
		t.Fatal("identical configs under a fixed-seed factory diverged")
	}
}

// TestRunManyBudgetTruncationIsSuccess: ErrBudget runs stay in the result
// set and do not fail the batch.
func TestRunManyBudgetTruncationIsSuccess(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{
		Algorithm:  alg,
		N:          3,
		NoSignaler: true,
		MaxPolls:   0,
		MaxSteps:   500,
	}}
	r := NewRunner(WithModels(CC))
	results, err := r.RunMany(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("budget truncation should not fail the batch: %v", err)
	}
	if results[0] == nil || !results[0].Truncated {
		t.Fatalf("result = %+v, want truncated result", results[0])
	}
}

// TestRunnerCtxOverridesOwnInterrupt: a config carrying its own (silent)
// Interrupt channel must still stop when the runner's context is
// cancelled — whichever fires first wins.
func TestRunnerCtxOverridesOwnInterrupt(t *testing.T) {
	alg, err := AlgorithmByName("flag")
	if err != nil {
		t.Fatal(err)
	}
	never := make(chan struct{}) // the config's own interrupt, never fired
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	r := NewRunner(WithContext(ctx))
	start := time.Now()
	_, err = r.Run(Config{
		Algorithm:  alg,
		N:          4,
		NoSignaler: true,
		MaxPolls:   0,
		MaxSteps:   1 << 30, // only an interrupt can stop this
		Interrupt:  never,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run stopped only after %v; context cancellation was ignored", elapsed)
	}
}
