// Package repro's benchmark harness regenerates every experiment of the
// E1–E12 suite (see cmd/experiments for the reference tables) under
// `go test -bench`. Wall-clock time measures the
// simulator, not a real multiprocessor; the paper-relevant outputs are the
// custom metrics each benchmark reports (RMRs per process, amortized RMRs,
// messages, adversary certificates), whose *shapes* must match the paper's
// claims.
package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/gme"
	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/semisync"
	"repro/internal/signal"
)

// runSignaling drives one signaling history and returns the result.
func runSignaling(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	res, err := core.Run(cfg)
	if err != nil && !errors.Is(err, core.ErrBudget) {
		b.Fatal(err)
	}
	if len(res.Violations) > 0 {
		b.Fatalf("spec violations: %v", res.Violations)
	}
	return res
}

// BenchmarkE1CCFlag — Section 5 upper bound: worst-case CC RMRs per process
// stay O(1) as N grows (flat rmr_worst_per_proc across sub-benchmarks).
func BenchmarkE1CCFlag(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var rep *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   signal.Flag(),
					N:           n,
					MaxPolls:    64,
					SignalAfter: 4 * n,
					MaxSteps:    2_000_000,
					Scorers:     []model.Scorer{model.ModelCC},
				})
				rep = res.Score(model.ModelCC)
			}
			b.ReportMetric(float64(rep.Max()), "rmr_worst_per_proc")
			b.ReportMetric(rep.Amortized(), "rmr_amortized")
		})
	}
}

// BenchmarkE2NaiveDSM — the identical flag algorithm under the DSM rule:
// worst-case RMRs grow linearly with the poll budget (the naive solution
// has unbounded RMR complexity on DSM).
func BenchmarkE2NaiveDSM(b *testing.B) {
	for _, polls := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("polls=%d", polls), func(b *testing.B) {
			var cc, dsm *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:  signal.Flag(),
					N:          8,
					MaxPolls:   polls,
					NoSignaler: true,
					MaxSteps:   2_000_000,
					Scorers:    []model.Scorer{model.ModelCC, model.ModelDSM},
				})
				cc = res.Score(model.ModelCC)
				dsm = res.Score(model.ModelDSM)
			}
			b.ReportMetric(float64(cc.Max()), "rmr_worst_cc")
			b.ReportMetric(float64(dsm.Max()), "rmr_worst_dsm")
		})
	}
}

// BenchmarkE3Adversary — Theorem 6.2: the adversary's certificate exceeds
// c·k for read/write algorithms; ratio = total/(c·k) > 1.
func BenchmarkE3Adversary(b *testing.B) {
	for _, alg := range []signal.Algorithm{signal.Flag(), signal.FixedWaiters()} {
		for _, c := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/c=%d", alg.Name, c), func(b *testing.B) {
				var cert *lowerbound.Certificate
				for i := 0; i < b.N; i++ {
					var err error
					cert, err = lowerbound.Run(lowerbound.Config{
						Algorithm: alg,
						N:         16 * (c + 1),
						C:         c,
					})
					if err != nil {
						b.Fatal(err)
					}
					if cert.Verdict != lowerbound.VerdictExceeded {
						b.Fatalf("verdict = %v", cert.Verdict)
					}
				}
				b.ReportMetric(float64(cert.TotalRMRs), "total_rmrs")
				b.ReportMetric(float64(cert.K), "participants_k")
				b.ReportMetric(float64(cert.TotalRMRs)/float64(c*cert.K), "excess_ratio")
			})
		}
	}
}

// BenchmarkE4AdversaryCAS — Corollary 6.14: the read/write transformation
// of the CAS registration algorithm is defeated (excess_ratio > 1) while
// the F&I queue evades (excess_ratio <= 1).
func BenchmarkE4AdversaryCAS(b *testing.B) {
	for _, alg := range []signal.Algorithm{signal.CASRegisterRW(), signal.QueueSignal()} {
		b.Run(alg.Name, func(b *testing.B) {
			var cert *lowerbound.Certificate
			for i := 0; i < b.N; i++ {
				var err error
				cert, err = lowerbound.Run(lowerbound.Config{Algorithm: alg, N: 16, C: 3})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cert.TotalRMRs), "total_rmrs")
			b.ReportMetric(float64(cert.TotalRMRs)/float64(3*cert.K), "excess_ratio")
		})
	}
}

// BenchmarkE5SingleWaiter — Section 7 single-waiter: worst-case RMRs flat
// in both models regardless of poll count.
func BenchmarkE5SingleWaiter(b *testing.B) {
	for _, polls := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("polls=%d", polls), func(b *testing.B) {
			var cc, dsm *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   signal.SingleWaiter(),
					N:           4,
					Waiters:     []memsim.PID{0},
					Signaler:    3,
					MaxPolls:    polls,
					SignalAfter: 2 * polls,
					MaxSteps:    1_000_000,
					Scorers:     []model.Scorer{model.ModelCC, model.ModelDSM},
				})
				cc = res.Score(model.ModelCC)
				dsm = res.Score(model.ModelDSM)
			}
			b.ReportMetric(float64(cc.Max()), "rmr_worst_cc")
			b.ReportMetric(float64(dsm.Max()), "rmr_worst_dsm")
		})
	}
}

// BenchmarkE6FixedWaiters — Section 7 fixed waiters: the broadcast
// signaler's amortized DSM cost grows with W under sparse participation;
// the terminating variant stays O(1).
func BenchmarkE6FixedWaiters(b *testing.B) {
	for _, w := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("broadcast/W=%d", w), func(b *testing.B) {
			var rep *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm: signal.FixedWaiters(),
					N:         w + 1,
					Waiters:   []memsim.PID{0, 1},
					Signaler:  memsim.PID(w),
					MaxPolls:  4,
					MaxSteps:  4_000_000,
					Scorers:   []model.Scorer{model.ModelDSM},
				})
				rep = res.Score(model.ModelDSM)
			}
			b.ReportMetric(rep.Amortized(), "rmr_amortized_dsm")
		})
		b.Run(fmt.Sprintf("terminating/W=%d", w), func(b *testing.B) {
			var rep *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm: signal.FixedWaitersTerminating(),
					N:         w + 1,
					MaxSteps:  8_000_000,
					Scorers:   []model.Scorer{model.ModelDSM},
				})
				rep = res.Score(model.ModelDSM)
			}
			b.ReportMetric(rep.Amortized(), "rmr_amortized_dsm")
		})
	}
}

// BenchmarkE7QueueSignal — Section 7 queue algorithm: waiter worst-case and
// amortized DSM RMRs flat as the number of participating waiters grows.
func BenchmarkE7QueueSignal(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var rep *model.Report
			n := k + 1
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   signal.QueueSignal(),
					N:           n,
					MaxPolls:    6,
					SignalAfter: 6 * k,
					MaxSteps:    4_000_000,
					Scorers:     []model.Scorer{model.ModelDSM},
				})
				rep = res.Score(model.ModelDSM)
			}
			maxWaiter := 0
			for pid := 0; pid < n-1; pid++ {
				if rep.PerProc[pid] > maxWaiter {
					maxWaiter = rep.PerProc[pid]
				}
			}
			b.ReportMetric(float64(maxWaiter), "rmr_worst_waiter")
			b.ReportMetric(float64(rep.PerProc[n-1]), "rmr_signaler")
			b.ReportMetric(rep.Amortized(), "rmr_amortized")
		})
	}
}

// BenchmarkE8Messages — Section 8 exchange rate: the same CC execution
// priced as bus, ideal-directory and limited-directory messages.
func BenchmarkE8Messages(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var bus, ideal, limited *model.Report
			waiters := make([]memsim.PID, 0, n/2)
			for i := 0; i < n/2; i++ {
				waiters = append(waiters, memsim.PID(i))
			}
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   signal.Flag(),
					N:           n,
					Waiters:     waiters,
					Signaler:    memsim.PID(n - 1),
					MaxPolls:    32,
					SignalAfter: 6 * n,
					MaxSteps:    4_000_000,
					Scorers: []model.Scorer{
						model.ModelCC, model.ModelCCDirIdeal, model.CCDirLimited(4),
					},
				})
				bus = res.Score(model.ModelCC)
				ideal = res.Score(model.ModelCCDirIdeal)
				limited = res.Score(model.CCDirLimited(4))
			}
			b.ReportMetric(float64(bus.Total), "rmrs")
			b.ReportMetric(float64(bus.Invalidations), "invalidations")
			b.ReportMetric(float64(bus.Messages), "msgs_bus")
			b.ReportMetric(float64(ideal.Messages), "msgs_dir_ideal")
			b.ReportMetric(float64(limited.Messages), "msgs_dir_limit4")
		})
	}
}

// BenchmarkE9Mutex — Section 3 landscape: RMRs per passage for every lock
// under both models, on the streaming path (single-pass pricing, no
// retained trace).
func BenchmarkE9Mutex(b *testing.B) {
	for _, alg := range mutex.All() {
		for _, n := range []int{2, 8, 16} {
			b.Run(fmt.Sprintf("%s/N=%d", alg.Name, n), func(b *testing.B) {
				var res *mutex.RunResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = mutex.Run(mutex.RunConfig{
						Lock:      alg,
						N:         n,
						Passages:  8,
						Scheduler: sched.NewRandom(1),
						MaxSteps:  4_000_000,
						Scorers:   []model.Scorer{model.ModelCC, model.ModelDSM},
					})
					if err != nil && !errors.Is(err, mutex.ErrBudget) {
						b.Fatal(err)
					}
					if !res.MutualExclusion {
						b.Fatal("mutual exclusion violated")
					}
					if res.Events != nil {
						b.Fatal("streaming lock run retained events")
					}
				}
				b.ReportMetric(res.PerPassage(model.ModelCC), "rmr_per_passage_cc")
				b.ReportMetric(res.PerPassage(model.ModelDSM), "rmr_per_passage_dsm")
			})
		}
	}
}

// jammerInstance is a micro-workload for the cache-rule ablation: process 0
// repeatedly issues a CAS that always fails on the flag the other processes
// spin-read. Under the paper's Section 2 rule a failed CAS is trivial (no
// overwrite) and leaves readers' cached copies valid; under the strict rule
// every CAS invalidates them.
type jammerInstance struct {
	b memsim.Addr
}

// ProgramInto: process 0's Poll is one CAS(B, 99, 100), which always
// fails (B is never 99); everyone else's Poll reads B; Signal writes 1.
func (in jammerInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		if pid == 0 {
			return memsim.BuildFrame(dst, accessFrame{acc: memsim.AccCAS(in.b, 99, 100), ret: false}), nil
		}
		return memsim.BuildFrame(dst, accessFrame{acc: memsim.AccRead(in.b), ret: true}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, accessFrame{acc: memsim.AccWrite(in.b, 1)}), nil
	default:
		return nil, signal.ErrUnsupported
	}
}

// accessFrame performs one access and returns the value it read when ret
// is set, 0 otherwise.
type accessFrame struct {
	acc  memsim.Access
	ret  bool
	done bool
	val  memsim.Value
}

func (f *accessFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	if f.done {
		if f.ret {
			f.val = prev.Val
		}
		return memsim.Access{}, false
	}
	f.done = true
	return f.acc, true
}

func (f *accessFrame) Return() memsim.Value { return f.val }

func (f *accessFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// BenchmarkAblationCacheRule — design ablation: the Section 2 CC rule
// (invalidate only on nontrivial operations) vs a strict rule that also
// invalidates on failed CAS. Spinning readers next to a failing CAS jammer
// show the gap.
func BenchmarkAblationCacheRule(b *testing.B) {
	factory := func(m *memsim.Machine, n int) (memsim.Instance, error) {
		return jammerInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
	}
	run := func(b *testing.B, cm model.Scorer) float64 {
		var rep *model.Report
		for i := 0; i < b.N; i++ {
			res, err := core.Run(core.Config{
				Algorithm: signal.Algorithm{
					Name:    "jammer",
					Variant: signal.Variant{Waiters: -1, Polling: true},
					New:     factory,
				},
				N:           8,
				MaxPolls:    32,
				SignalAfter: 200,
				MaxSteps:    4_000_000,
				Scorers:     []model.Scorer{cm},
			})
			if err != nil {
				b.Fatal(err)
			}
			rep = res.Reports[0]
		}
		return float64(rep.Total)
	}
	b.Run("paper-rule", func(b *testing.B) {
		b.ReportMetric(run(b, model.ModelCC), "rmrs")
	})
	b.Run("strict-invalidate", func(b *testing.B) {
		b.ReportMetric(run(b, model.CC{Msg: model.MsgBus, StrictInvalidate: true}), "rmrs")
	})
}

// BenchmarkAblationRollForward — design ablation: the ⌊√X⌋ roll-forward
// threshold vs extreme alternatives, measured by surviving stable waiters
// (more survivors = stronger Part 2 certificate).
func BenchmarkAblationRollForward(b *testing.B) {
	for _, th := range []int{0, 2, 1 << 20} { // 0 = paper's sqrt rule
		name := "sqrt"
		switch th {
		case 2:
			name = "always-roll"
		case 1 << 20:
			name = "never-roll"
		}
		b.Run(name, func(b *testing.B) {
			var cert *lowerbound.Certificate
			for i := 0; i < b.N; i++ {
				var err error
				cert, err = lowerbound.Run(lowerbound.Config{
					Algorithm:     signal.SingleWaiter(),
					N:             64,
					C:             2,
					RollThreshold: th,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cert.StableWaiters), "stable_waiters")
			b.ReportMetric(float64(cert.TotalRMRs), "total_rmrs")
		})
	}
}

// BenchmarkAblationRegistry — design ablation: F&I registry vs CAS slot-scan
// registration inside the signaling algorithm (amortized DSM RMRs).
func BenchmarkAblationRegistry(b *testing.B) {
	for _, alg := range []signal.Algorithm{signal.QueueSignal(), signal.CASRegister()} {
		b.Run(alg.Name, func(b *testing.B) {
			var rep *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   alg,
					N:           33,
					MaxPolls:    6,
					SignalAfter: 128,
					MaxSteps:    4_000_000,
					Scorers:     []model.Scorer{model.ModelDSM},
				})
				rep = res.Score(model.ModelDSM)
			}
			b.ReportMetric(rep.Amortized(), "rmr_amortized_dsm")
			b.ReportMetric(float64(rep.Max()), "rmr_worst")
		})
	}
}

// BenchmarkE10GME — the two-session group-mutual-exclusion substrate (the
// Hadzilacos–Danek Section 3 setting): RMRs per entry under both models.
func BenchmarkE10GME(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var res *gme.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = gme.Run(gme.RunConfig{
					N:         n,
					Sessions:  2,
					Entries:   6,
					Scheduler: sched.NewRandom(2),
					MaxSteps:  4_000_000,
					Scorers:   []model.Scorer{model.ModelCC, model.ModelDSM},
				})
				if err != nil && !errors.Is(err, gme.ErrBudget) {
					b.Fatal(err)
				}
				if !res.SessionSafe {
					b.Fatal("session safety violated")
				}
			}
			b.ReportMetric(res.PerEntry(model.ModelCC), "rmr_per_entry_cc")
			b.ReportMetric(res.PerEntry(model.ModelDSM), "rmr_per_entry_dsm")
		})
	}
}

// BenchmarkE11SemiSync — Section 3's semi-synchronous model: Fischer's
// timed lock stays a correct mutex under Δ-respecting schedules with CC
// cost roughly flat in Δ (delays are local).
func BenchmarkE11SemiSync(b *testing.B) {
	for _, d := range []int{2, 8} {
		b.Run(fmt.Sprintf("delta=%d", d), func(b *testing.B) {
			var res *semisync.RunResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = semisync.Run(semisync.RunConfig{
					N:        6,
					Delta:    d,
					Passages: 6,
					Timed:    true,
					Seed:     3,
					MaxSteps: 4_000_000,
					Scorers:  []model.Scorer{model.ModelCC, model.ModelDSM},
				})
				if err != nil && !errors.Is(err, semisync.ErrBudget) {
					b.Fatal(err)
				}
				if !res.MutualExclusion {
					b.Fatal("mutual exclusion violated under timed schedule")
				}
			}
			b.ReportMetric(res.PerPassage(model.ModelCC), "rmr_per_passage_cc")
			b.ReportMetric(res.PerPassage(model.ModelDSM), "rmr_per_passage_dsm")
		})
	}
}

// BenchmarkAblationEviction — Section 8's ideal-cache caveat: the same
// execution re-priced with periodic spurious evictions (preemption) shows
// how far theoretical CC RMR counts can underestimate reality.
func BenchmarkAblationEviction(b *testing.B) {
	for _, evict := range []int{0, 16, 4} {
		name := "ideal"
		if evict > 0 {
			name = fmt.Sprintf("evict-every-%d", evict)
		}
		b.Run(name, func(b *testing.B) {
			var rep *model.Report
			for i := 0; i < b.N; i++ {
				res := runSignaling(b, core.Config{
					Algorithm:   signal.Flag(),
					N:           8,
					MaxPolls:    64,
					SignalAfter: 200,
					MaxSteps:    2_000_000,
					Scorers: []model.Scorer{
						model.CC{Msg: model.MsgBus, EvictEvery: evict},
					},
				})
				rep = res.Reports[0]
			}
			b.ReportMetric(float64(rep.Total), "rmrs")
			b.ReportMetric(float64(rep.Max()), "rmr_worst")
		})
	}
}

// BenchmarkEngineStep measures the engine per step, with every call a
// frame the controller dispatches inline. "signal/resumable" is a
// contended flag workload through core.Run; "mcs/resumable" is a
// contended MCS passage workload through the harness. ns/step, ns/op and
// allocs/op are the paper-relevant metrics.
func BenchmarkEngineStep(b *testing.B) {
	sigBase := core.Config{
		Algorithm:   signal.Flag(),
		N:           8,
		MaxPolls:    256,
		SignalAfter: 4_000,
		MaxSteps:    2_000_000,
	}
	b.Run("signal/resumable", func(b *testing.B) {
		b.ReportAllocs()
		steps := 0
		for i := 0; i < b.N; i++ {
			steps = runSignaling(b, sigBase).Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	})

	lockBase := mutex.RunConfig{
		Lock:     mutex.MCS(),
		N:        8,
		Passages: 64,
		MaxSteps: 4_000_000,
	}
	b.Run("mcs/resumable", func(b *testing.B) {
		b.ReportAllocs()
		steps := 0
		for i := 0; i < b.N; i++ {
			cfg := lockBase
			cfg.Scheduler = sched.NewRandom(1)
			res, err := mutex.Run(cfg)
			if err != nil && !errors.Is(err, mutex.ErrBudget) {
				b.Fatal(err)
			}
			if !res.MutualExclusion {
				b.Fatal("mutual exclusion violated")
			}
			steps = res.Steps
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
	})
}

// BenchmarkScoringAllocs contrasts the two scoring paths on identical
// workloads priced under all four standard models: "streaming" attaches
// accumulators and retains no trace (a single pass, O(1) retained events);
// "retained" keeps the full []Event and batch-scores it four times, the
// pre-redesign pipeline. The signaling pair exercises core.Run; the lock
// pair exercises the generic workload harness on a contended MCS workload.
// allocs/op and B/op are the paper-relevant metrics; streaming must
// allocate strictly less.
func BenchmarkScoringAllocs(b *testing.B) {
	base := core.Config{
		Algorithm:   signal.Flag(),
		N:           16,
		MaxPolls:    512,
		SignalAfter: 6_000,
		MaxSteps:    2_000_000,
	}
	standard := model.StandardScorers()
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Scorers = standard
			res := runSignaling(b, cfg)
			if res.Events != nil {
				b.Fatal("streaming run retained events")
			}
			if len(res.Reports) != len(standard) {
				b.Fatal("missing streaming reports")
			}
		}
	})
	b.Run("retained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.KeepEvents = true
			res := runSignaling(b, cfg)
			for _, cm := range standard {
				if res.Score(cm) == nil {
					b.Fatal("batch score failed")
				}
			}
		}
	})

	// The same contrast on the harness path: a contended MCS lock workload.
	lockBase := mutex.RunConfig{
		Lock:     mutex.MCS(),
		N:        16,
		Passages: 32,
		MaxSteps: 4_000_000,
	}
	runLock := func(b *testing.B, cfg mutex.RunConfig) *mutex.RunResult {
		b.Helper()
		cfg.Scheduler = sched.NewRandom(1)
		res, err := mutex.Run(cfg)
		if err != nil && !errors.Is(err, mutex.ErrBudget) {
			b.Fatal(err)
		}
		if !res.MutualExclusion {
			b.Fatal("mutual exclusion violated")
		}
		return res
	}
	b.Run("lock-streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := lockBase
			cfg.Scorers = standard
			res := runLock(b, cfg)
			if res.Events != nil {
				b.Fatal("streaming lock run retained events")
			}
			if len(res.Reports) != len(standard) {
				b.Fatal("missing streaming reports")
			}
		}
	})
	b.Run("lock-retained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := lockBase
			cfg.KeepEvents = true
			res := runLock(b, cfg)
			for _, cm := range standard {
				if res.Score(cm) == nil {
					b.Fatal("batch score failed")
				}
			}
		}
	})
}

// BenchmarkExploreWorkers measures the parallel explorer's scaling curve on
// the headline configuration: the F&I queue with 3 waiters × 3 polls (5
// processes) explored exhaustively to depth 20 — ~21.6k maximal histories
// plus ~44.6k pruned subtrees per run. Workers shard the schedule tree over
// a work-stealing frontier and share the claim-once dedup table, so every
// sub-benchmark does the identical, deterministic amount of search work;
// ns/op across worker counts is the scaling curve (near-linear up to the
// core count, with only the striped dedup table shared).
func BenchmarkExploreWorkers(b *testing.B) {
	counts := []int{1, 2, 4, 8}
	check := func(events []memsim.Event) error {
		if vs := signal.CheckSpec(events); len(vs) > 0 {
			return vs[0]
		}
		return nil
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *explore.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = explore.Run(explore.Config{
					Factory: signal.QueueSignal().New,
					N:       5,
					Scripts: map[memsim.PID][]memsim.CallKind{
						0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
						1: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
						2: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
						4: {memsim.CallSignal},
					},
					MaxDepth: 20,
					Workers:  workers,
					Check:    check,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.StatesDeduped == 0 {
					b.Fatal("depth-20 queue exploration should deduplicate states")
				}
			}
			nodes := float64(res.Paths + res.StatesDeduped)
			b.ReportMetric(nodes*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
			b.ReportMetric(float64(res.Paths), "paths")
		})
	}
}

// BenchmarkRunManyWorkers measures batch throughput of the Runner facade
// across worker counts: 24 independent histories priced under both
// architecture models, streaming.
func BenchmarkRunManyWorkers(b *testing.B) {
	alg := signal.Flag()
	cfgs := make([]core.Config, 24)
	for i := range cfgs {
		cfgs[i] = core.Config{
			Algorithm:   alg,
			N:           8 + 4*(i%4),
			MaxPolls:    64,
			SignalAfter: 40,
			MaxSteps:    2_000_000,
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := NewRunner(WithModels(CC, DSM), WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				// Fresh scheduler state per run: configs leave Scheduler
				// nil, so each run gets its own round-robin.
				results, err := r.RunMany(context.Background(), cfgs)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if res == nil || len(res.Reports) != 2 {
						b.Fatal("missing batch result")
					}
				}
			}
			b.ReportMetric(float64(len(cfgs)*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
