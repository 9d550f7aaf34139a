package model_test

// Property-style equivalence tests: for randomized traces (varied
// algorithms, process counts and schedulers), every incremental
// Accumulator must produce a Report identical to the legacy batch Score,
// and per-event costs identical to the legacy batch Annotate, for every
// model variant and knob in the repository.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/signal"
)

// variants is the model matrix under test: the four standard models, the
// limited directory at several capacities, and the EvictEvery /
// StrictInvalidate ablation knobs the issue calls out.
func variants() []model.Scorer {
	return []model.Scorer{
		model.ModelDSM,
		model.ModelCC,
		model.ModelCCWriteBack,
		model.ModelCCDirIdeal,
		model.CCDirLimited(1),
		model.CCDirLimited(2),
		model.CCDirLimited(4),
		model.CC{Msg: model.MsgBus, EvictEvery: 3},
		model.CC{Msg: model.MsgBus, EvictEvery: 7, WriteBack: true},
		model.CC{Msg: model.MsgBus, StrictInvalidate: true},
		model.CC{Msg: model.MsgDirectoryIdeal, StrictInvalidate: true},
		model.CC{Msg: model.MsgDirectoryLimited, Limit: 1, WriteBack: true},
		model.CC{Msg: model.MsgDirectoryLimited, Limit: 2, EvictEvery: 5},
	}
}

// trace captures one randomized execution.
type testTrace struct {
	name   string
	events []memsim.Event
	owner  func(memsim.Addr) memsim.PID
	n      int
}

// randomTraces runs a spread of algorithms, sizes and schedulers with the
// trace retained, producing the ground-truth inputs for both scoring
// paths.
func randomTraces(t *testing.T) []testTrace {
	t.Helper()
	var out []testTrace
	algs := []signal.Algorithm{
		signal.Flag(), signal.QueueSignal(), signal.CASRegister(),
		signal.FixedWaiters(), signal.LLSCRegister(), signal.MultiSignaler(),
	}
	for _, alg := range algs {
		for _, n := range []int{3, 6, 9} {
			for seed := int64(0); seed <= 2; seed++ {
				var sc sched.Scheduler
				name := alg.Name
				if seed == 0 {
					sc = sched.NewRoundRobin()
					name += "/rr"
				} else {
					sc = sched.NewRandom(seed)
					name += "/rand"
				}
				res, err := core.Run(core.Config{
					Algorithm:   alg,
					N:           n,
					MaxPolls:    6 + int(seed),
					SignalAfter: 2 * n,
					MaxSteps:    200_000,
					Scheduler:   sc,
					KeepEvents:  true,
				})
				if err != nil && !errors.Is(err, core.ErrBudget) {
					t.Fatalf("%s n=%d seed=%d: %v", alg.Name, n, seed, err)
				}
				out = append(out, testTrace{
					name:   name,
					events: res.Events,
					owner:  res.OwnerFunc(),
					n:      res.N(),
				})
			}
		}
	}
	return out
}

// TestAccumulatorMatchesBatch is the core equivalence property: streaming
// the trace through Begin/Add/Report must reproduce the legacy batch Score
// exactly, event costs included.
func TestAccumulatorMatchesBatch(t *testing.T) {
	traces := randomTraces(t)
	if len(traces) == 0 {
		t.Fatal("no traces generated")
	}
	for _, tr := range traces {
		for _, s := range variants() {
			batch := s.Score(tr.events, tr.owner, tr.n)
			acc := s.Begin(tr.n, tr.owner)
			streamCosts := make([]model.Cost, len(tr.events))
			for i, ev := range tr.events {
				streamCosts[i] = acc.Add(ev)
			}
			if got := acc.Report(); !reflect.DeepEqual(got, batch) {
				t.Errorf("%s under %s: streaming report %+v != batch %+v",
					tr.name, s.Name(), got, batch)
			}
			if ann, ok := s.(model.Annotator); ok {
				batchCosts := ann.Annotate(tr.events, tr.owner, tr.n)
				if !reflect.DeepEqual(streamCosts, batchCosts) {
					t.Errorf("%s under %s: per-event costs diverge", tr.name, s.Name())
				}
			}
		}
	}
}

// TestBeginReuseMatchesBegin: an accumulator opened in a finished one's
// storage prices every event, encodes its state and reports exactly like
// one opened fresh, whatever model, size and trace the spare last served,
// and it is the spare itself whenever the spare is of its kind.
func TestBeginReuseMatchesBegin(t *testing.T) {
	traces := randomTraces(t)
	vs := variants()
	var spare model.Accumulator
	for i, tr := range traces {
		for j, v := range vs {
			r, ok := v.(model.ReusingScorer)
			if !ok {
				t.Fatalf("%s: %T does not implement ReusingScorer", v.Name(), v)
			}
			prev := spare
			reused := r.BeginReuse(spare, tr.n, tr.owner)
			fresh := v.Begin(tr.n, tr.owner)
			if reflect.TypeOf(prev) == reflect.TypeOf(fresh) && reused != prev {
				t.Fatalf("%s/%s: BeginReuse did not reuse a spare of its kind", v.Name(), tr.name)
			}
			if got, want := encodeState(t, reused), encodeState(t, fresh); got != want {
				t.Fatalf("%s/%s: reused accumulator starts in state %q, want %q", v.Name(), tr.name, got, want)
			}
			for k, ev := range tr.events {
				if cr, cf := reused.Add(ev), fresh.Add(ev); cr != cf {
					t.Fatalf("%s/%s: event %d costs %+v in reused storage, %+v fresh", v.Name(), tr.name, k, cr, cf)
				}
			}
			if got, want := encodeState(t, reused), encodeState(t, fresh); got != want {
				t.Fatalf("%s/%s: reused accumulator ends in state %q, want %q", v.Name(), tr.name, got, want)
			}
			if got, want := model.FinalReport(reused), model.FinalReport(fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: reused report %+v, fresh %+v", v.Name(), tr.name, got, want)
			}
			// The next scorer reuses this run's storage; every few runs it
			// gets none, or a spare of the other kind.
			spare = reused
			if (i+j)%5 == 0 {
				spare = nil
			}
		}
	}
}

// TestAccumulatorMidRunReport: Report must be a consistent snapshot at any
// prefix — equal to a batch score of that prefix — and must not alias
// accumulator state.
func TestAccumulatorMidRunReport(t *testing.T) {
	tr := randomTraces(t)[0]
	for _, s := range variants() {
		acc := s.Begin(tr.n, tr.owner)
		for i, ev := range tr.events {
			acc.Add(ev)
			if i == len(tr.events)/2 {
				snap := acc.Report()
				want := s.Score(tr.events[:i+1], tr.owner, tr.n)
				if !reflect.DeepEqual(snap, want) {
					t.Fatalf("%s: mid-run snapshot at %d diverges", s.Name(), i)
				}
				snap.PerProc[0] += 100 // must not corrupt the accumulator
			}
		}
		if got, want := acc.Report(), s.Score(tr.events, tr.owner, tr.n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: final report corrupted by snapshot mutation", s.Name())
		}
	}
}

// TestAccumulatorIgnoresCallBoundaries: call-start/end events are free
// under every model.
func TestAccumulatorIgnoresCallBoundaries(t *testing.T) {
	owner := func(memsim.Addr) memsim.PID { return 0 }
	for _, s := range variants() {
		acc := s.Begin(2, owner)
		for _, ev := range []memsim.Event{
			{Kind: memsim.EvCallStart, PID: 1, Proc: "Poll"},
			{Kind: memsim.EvCallEnd, PID: 1, Proc: "Poll", Ret: 1},
		} {
			if c := acc.Add(ev); c != (model.Cost{}) {
				t.Errorf("%s: call boundary priced %+v", s.Name(), c)
			}
		}
		if rep := acc.Report(); rep.Total != 0 || rep.Messages != 0 {
			t.Errorf("%s: boundary-only run billed %+v", s.Name(), rep)
		}
	}
}

// TestEvictionSweepsExclusiveCopies: the spurious whole-cache eviction
// must also destroy a write-back exclusive copy whose address never
// entered the shared map — a re-read after preemption is a miss, not a
// free cache hit.
func TestEvictionSweepsExclusiveCopies(t *testing.T) {
	owner := func(memsim.Addr) memsim.PID { return memsim.NoOwner }
	cm := model.CC{Msg: model.MsgBus, WriteBack: true, EvictEvery: 2}
	wr := func(seq int, a memsim.Addr) memsim.Event {
		return memsim.Event{
			Seq: seq, Kind: memsim.EvAccess, PID: 0,
			Acc: memsim.Access{Op: memsim.OpWrite, Addr: a, Arg1: 1},
			Res: memsim.Result{OK: true, Wrote: true},
		}
	}
	rd := func(seq int, a memsim.Addr) memsim.Event {
		return memsim.Event{
			Seq: seq, Kind: memsim.EvAccess, PID: 0,
			Acc: memsim.Access{Op: memsim.OpRead, Addr: a},
			Res: memsim.Result{OK: true},
		}
	}
	events := []memsim.Event{
		wr(0, 5), // exclusive copy of addr 5; addr 5 never read-shared
		wr(1, 9), // access #2: whole-cache eviction fires
		rd(2, 5), // must be a miss: the exclusive copy was evicted
	}
	costs := cm.Annotate(events, owner, 1)
	if !costs[2].RMR {
		t.Fatalf("read after eviction priced %+v, want an RMR miss", costs[2])
	}
	acc := cm.Begin(1, owner)
	for _, ev := range events[:2] {
		acc.Add(ev)
	}
	if c := acc.Add(events[2]); !c.RMR {
		t.Fatalf("streaming read after eviction priced %+v, want an RMR miss", c)
	}
}
