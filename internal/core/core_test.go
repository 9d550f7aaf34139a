package core

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/signal"
)

func TestRunFlagRoundRobin(t *testing.T) {
	returns := signal.Returns{}
	res, err := Run(Config{
		Algorithm:   signal.Flag(),
		N:           4,
		MaxPolls:    100,
		SignalAfter: 60,
		Scorers:     []model.Scorer{model.ModelCC, model.ModelDSM},
		Sink:        returns.Observe,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Signaled {
		t.Fatal("signal never completed")
	}
	if len(res.Violations) > 0 {
		t.Fatalf("spec violations: %v", res.Violations)
	}
	// Every waiter must eventually observe the signal under round-robin:
	// its last poll returns true.
	if len(returns) != 4 {
		t.Fatalf("returns of %d processes, want 4: %v", len(returns), returns)
	}
	for pid, rets := range returns {
		if int(pid) == 3 {
			continue // signaler
		}
		if len(rets) == 0 || rets[len(rets)-1] != 1 {
			t.Errorf("waiter %d never observed the signal: returns %v", pid, rets)
		}
	}
	cc := res.Score(model.ModelCC)
	dsm := res.Score(model.ModelDSM)
	if cc.Max() > 3 {
		t.Errorf("CC worst-case RMRs = %d, want O(1) (<=3)", cc.Max())
	}
	if dsm.Total <= cc.Total {
		t.Errorf("DSM total %d should exceed CC total %d for the flag algorithm", dsm.Total, cc.Total)
	}
}

func TestRunAllAlgorithmsRandomSchedules(t *testing.T) {
	for _, alg := range signal.All() {
		alg := alg
		t.Run(alg.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				n := 6
				cfg := Config{
					Algorithm:   alg,
					N:           n,
					MaxPolls:    500,
					SignalAfter: 10,
					Scheduler:   sched.NewRandom(seed),
					Blocking:    !alg.Variant.Polling || (alg.Variant.Blocking && seed%2 == 0),
				}
				if alg.Variant.Waiters == 1 {
					cfg.Waiters = []memsim.PID{1}
					cfg.Signaler = 5
				}
				res, err := Run(cfg)
				if err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("seed %d: spec violations: %v", seed, res.Violations)
				}
			}
		})
	}
}

// TestMultiSignalerRace drives the Section 7 multi-signaler algorithm with
// three racing signalers and verifies Specification 4.1 under random
// schedules (in particular, a losing Signal call must not complete before
// delivery).
func TestMultiSignalerRace(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		returns := signal.Returns{}
		res, err := Run(Config{
			Algorithm:   signal.MultiSignaler(),
			N:           8,
			Waiters:     []memsim.PID{0, 1, 2, 3},
			Signalers:   []memsim.PID{5, 6, 7},
			MaxPolls:    200,
			SignalAfter: 12,
			Scheduler:   sched.NewRandom(seed),
			Sink:        returns.Observe,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("seed %d: spec violations: %v", seed, res.Violations)
		}
		if !res.Signaled {
			t.Fatalf("seed %d: no signal completed", seed)
		}
		// All three Signal calls must have completed (losers wait for
		// the winner, then return).
		for _, s := range []memsim.PID{5, 6, 7} {
			if len(returns[s]) != 1 {
				t.Fatalf("seed %d: signaler %d returns %v", seed, s, returns[s])
			}
		}
	}
}

// TestFlagMultipleSignalers: the base spec allows any number of Signal
// calls; the flag algorithm trivially supports them.
func TestFlagMultipleSignalers(t *testing.T) {
	res, err := Run(Config{
		Algorithm:   signal.Flag(),
		N:           6,
		Waiters:     []memsim.PID{0, 1, 2},
		Signalers:   []memsim.PID{4, 5},
		MaxPolls:    100,
		SignalAfter: 10,
		Scheduler:   sched.NewRandom(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("spec violations: %v", res.Violations)
	}
}

// TestRunDeterminism: identical configurations with identical seeds must
// produce identical traces — the reproducibility guarantee all experiment
// tables rest on (property-based across seeds).
func TestRunDeterminism(t *testing.T) {
	check := func(seed int64) bool {
		run := func() []memsim.Event {
			res, err := Run(Config{
				Algorithm:   signal.QueueSignal(),
				N:           6,
				MaxPolls:    20,
				SignalAfter: 15,
				Scheduler:   sched.NewRandom(seed),
				KeepEvents:  true,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.Events
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRunConfigValidation covers the config error paths.
func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{N: 4}); err == nil {
		t.Fatal("want error for missing algorithm")
	}
	if _, err := Run(Config{Algorithm: signal.Flag(), N: 1}); err == nil {
		t.Fatal("want error for N < 2")
	}
}

// TestRunRejectsOutOfRangePIDs: a waiter or signaler outside [0, N) is a
// configuration error, not a process silently left out of the run.
func TestRunRejectsOutOfRangePIDs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"waiter", Config{Waiters: []memsim.PID{0, 5}, Signaler: 2},
			"core: waiter p5 outside the machine's processes [0, 3)"},
		{"negative waiter", Config{Waiters: []memsim.PID{-1}, Signaler: 2},
			"core: waiter p-1 outside the machine's processes [0, 3)"},
		{"signaler", Config{Waiters: []memsim.PID{0, 1}, Signaler: 7},
			"core: signaler p7 outside the machine's processes [0, 3)"},
		{"signalers", Config{Waiters: []memsim.PID{0}, Signalers: []memsim.PID{2, 9}},
			"core: signaler p9 outside the machine's processes [0, 3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Algorithm, cfg.N, cfg.MaxSteps = signal.Flag(), 3, 1000
			res, err := Run(cfg)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if res != nil {
				t.Fatalf("result %+v alongside a config error", res)
			}
		})
	}
}

// TestRunBudgetTruncation: with no signaler and unbounded polls the run
// must stop at the step budget and report truncation.
func TestRunBudgetTruncation(t *testing.T) {
	res, err := Run(Config{
		Algorithm:  signal.Flag(),
		N:          3,
		NoSignaler: true,
		MaxPolls:   0, // poll forever
		MaxSteps:   500,
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !res.Truncated || res.Steps != 500 {
		t.Fatalf("truncated=%v steps=%d", res.Truncated, res.Steps)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations on truncated prefix: %v", res.Violations)
	}
}

// TestRunStreamingReports: attached scorers must produce exactly the
// reports a batch Score of the retained trace yields, and runs without
// KeepEvents must retain no trace at all.
func TestRunStreamingReports(t *testing.T) {
	scorers := []model.Scorer{
		model.ModelDSM, model.ModelCC, model.ModelCCWriteBack,
		model.ModelCCDirIdeal, model.CCDirLimited(2),
	}
	cfg := Config{
		Algorithm:   signal.QueueSignal(),
		N:           6,
		MaxPolls:    12,
		SignalAfter: 20,
		Scheduler:   sched.NewRandom(9),
		Scorers:     scorers,
		KeepEvents:  true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(scorers) {
		t.Fatalf("got %d reports, want %d", len(res.Reports), len(scorers))
	}
	for i, s := range scorers {
		batch := s.Score(res.Events, res.OwnerFunc(), res.N())
		if !reflect.DeepEqual(res.Reports[i], batch) {
			t.Errorf("%s: streaming %+v != batch %+v", s.Name(), res.Reports[i], batch)
		}
	}

	cfg.KeepEvents = false
	cfg.Scheduler = sched.NewRandom(9)
	lean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Events != nil {
		t.Fatalf("KeepEvents off but %d events retained", len(lean.Events))
	}
	for i := range scorers {
		if !reflect.DeepEqual(lean.Reports[i], res.Reports[i]) {
			t.Errorf("%s: report differs without trace retention", scorers[i].Name())
		}
	}
	// Score falls back to the streaming report of the exact attached model.
	if got := lean.Score(model.ModelCC); !reflect.DeepEqual(got, res.Reports[1]) {
		t.Errorf("Score fallback = %+v, want %+v", got, res.Reports[1])
	}
	if lean.Score(model.CCDirLimited(2)) == nil {
		t.Error("Score should value-match the attached dir-limited scorer")
	}
	// A same-named CC variant with different knobs must NOT answer: its
	// report would be wrong.
	if got := lean.Score(model.CCDirLimited(7)); got != nil {
		t.Errorf("Score returned %+v for a dir-limited variant that was never attached", got)
	}
}

// TestRunInterrupt: a closed Interrupt channel stops the run promptly with
// ErrInterrupted and a valid truncated result.
func TestRunInterrupt(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	res, err := Run(Config{
		Algorithm:  signal.Flag(),
		N:          3,
		NoSignaler: true,
		MaxPolls:   0, // poll forever: only the interrupt can stop this
		MaxSteps:   1 << 30,
		Interrupt:  stop,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !res.Interrupted || res.Steps != 0 {
		t.Fatalf("interrupted=%v steps=%d, want immediate stop", res.Interrupted, res.Steps)
	}
}

// TestInterruptHarvestsFinalStep: an interrupt firing on the very step
// that completes the Signal call must not lose the completion — the
// interrupt check runs before the top-of-loop harvest, so the post-loop
// harvest is what collects it. Signaled, Returns and the waiter
// accounting all depend on this.
func TestInterruptHarvestsFinalStep(t *testing.T) {
	// First, a reference run to locate the step on which Signal completes.
	ref, err := Run(Config{
		Algorithm:   signal.Flag(),
		N:           3,
		MaxPolls:    4,
		SignalAfter: 2,
		Scheduler:   sched.NewRoundRobin(),
		KeepEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Signaled {
		t.Fatal("reference run never signaled")
	}
	signalEnd := 0
	steps := 0
	for _, ev := range ref.Events {
		if ev.Kind == memsim.EvAccess {
			steps++
		}
		if ev.Kind == memsim.EvCallEnd && ev.Proc == "Signal" {
			signalEnd = steps
		}
	}
	if signalEnd == 0 {
		t.Fatal("no Signal call-end in reference trace")
	}
	// Re-run identically, interrupting exactly when that step is applied.
	interrupt := make(chan struct{})
	seen := 0
	returns := signal.Returns{}
	res, err := Run(Config{
		Algorithm:   signal.Flag(),
		N:           3,
		MaxPolls:    4,
		SignalAfter: 2,
		Scheduler:   sched.NewRoundRobin(),
		Sink: func(ev memsim.Event) {
			returns.Observe(ev)
			if ev.Kind == memsim.EvAccess {
				seen++
				if seen == signalEnd {
					close(interrupt)
				}
			}
		},
		Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Steps != signalEnd {
		t.Fatalf("steps = %d, want %d", res.Steps, signalEnd)
	}
	if !res.Signaled {
		t.Fatal("Signal completed on the final step before the interrupt but was not harvested")
	}
	if got := len(returns[memsim.PID(2)]); got == 0 {
		t.Fatal("signaler's return was dropped")
	}
}
