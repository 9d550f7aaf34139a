package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/gme"
	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/progress"
	"repro/internal/semisync"
	"repro/internal/signal"
)

// ownersOf evaluates an ownership mapping over addresses [0, size+2).
func ownersOf(owner func(memsim.Addr) memsim.PID, size int) []memsim.PID {
	out := make([]memsim.PID, size+2)
	for a := range out {
		out[a] = owner(memsim.Addr(a))
	}
	return out
}

// addrSpan returns one past the largest address evs access.
func addrSpan(evs []memsim.Event) int {
	span := 0
	for _, ev := range evs {
		if ev.Kind == memsim.EvAccess && int(ev.Acc.Addr) >= span {
			span = int(ev.Acc.Addr) + 1
		}
	}
	return span
}

// TestReleasedStorageNotShared checks that what a run hands out survives
// the recycling of its deployment. An adversary certificate's trace and
// owners, a KeepEvents result's trace and OwnerFunc with the return values
// collected from its event stream, a KeepEvents lock result's trace and
// passage count (whose workload is recycled too), and a streaming
// result's reports (whose accumulators the next run with scorers reopens)
// are compared with deep copies after 20 more deployments have drawn
// machines, controllers, executions, workloads, frame storage, set-aside
// frames, accumulators and PRNG sources from the pools, many of them
// retaining a trace of their own. The certificate's trace,
// owners and rounds are then compared again after 12 adversary runs
// whose certificates are released at once.
func TestReleasedStorageNotShared(t *testing.T) {
	cert, err := lowerbound.Run(lowerbound.Config{Algorithm: signal.FixedWaiters(), N: 16, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	certEvents, certOwners := slices.Clone(cert.Events), slices.Clone(cert.Owners)
	certRounds := slices.Clone(cert.Rounds)

	returns := signal.Returns{}
	res, err := Run(Config{
		Algorithm:   signal.QueueSignal(),
		N:           6,
		MaxPolls:    4,
		SignalAfter: 12,
		KeepEvents:  true,
		Sink:        returns.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	span := addrSpan(res.Events)
	resEvents, resOwners := slices.Clone(res.Events), ownersOf(res.OwnerFunc(), span)
	resReturns := map[memsim.PID][]memsim.Value{}
	for pid, rets := range returns {
		resReturns[pid] = slices.Clone(rets)
	}

	lock, err := mutex.Run(mutex.RunConfig{Lock: mutex.MCS(), N: 4, Passages: 3, KeepEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lockEvents, lockPassages := slices.Clone(lock.Events), lock.Passages

	scorers := []model.Scorer{model.ModelCC, model.ModelDSM}
	stream, err := Run(Config{Algorithm: signal.FixedWaiters(), N: 6, MaxPolls: 4, SignalAfter: 6, Scorers: scorers})
	if err != nil {
		t.Fatal(err)
	}
	streamReports := make([]model.Report, len(stream.Reports))
	for i, r := range stream.Reports {
		streamReports[i] = *r
		streamReports[i].PerProc = slices.Clone(r.PerProc)
	}
	// The next run with the same scorers opens its accumulators in the
	// storage of stream's.
	if _, err := Run(Config{Algorithm: signal.QueueSignal(), N: 9, MaxPolls: 3, SignalAfter: 9, Scorers: scorers}); err != nil {
		t.Fatal(err)
	}
	if len(certEvents) == 0 || len(resEvents) == 0 || span == 0 || len(resReturns) == 0 ||
		len(lockEvents) == 0 || lockPassages == 0 || len(streamReports) != len(scorers) || streamReports[0].Total == 0 {
		t.Fatal("nothing retained to check")
	}

	algs := []signal.Algorithm{signal.Flag(), signal.CASRegister(), signal.LLSCRegisterRW(), signal.MultiSignaler()}
	for i := 0; i < 20; i++ {
		alg := algs[i%len(algs)]
		n := 4 + i
		var err error
		switch i % 7 {
		case 0: // an adversary run: two executions, one replayed with retention
			_, err = lowerbound.Run(lowerbound.Config{Algorithm: alg, N: n, C: 2})
		case 1: // a harness run that keeps its trace
			_, err = Run(Config{Algorithm: alg, N: n, MaxPolls: 3, SignalAfter: n, KeepEvents: true})
		case 2: // a harness run that releases its deployment
			_, err = Run(Config{Algorithm: alg, N: n, MaxPolls: 3, SignalAfter: n,
				Scorers: []model.Scorer{model.ModelDSM}})
		case 3: // one deployment reset between probes, then released
			_, err = progress.CheckWaitFree(alg, n, 4*n, memsim.CallPoll)
		case 4: // a lock run, keeping its trace on every other turn
			_, err = mutex.Run(mutex.RunConfig{Lock: mutex.All()[i%len(mutex.All())], N: n, Passages: 2,
				KeepEvents: i%2 == 0, Scorers: []model.Scorer{model.ModelCC}})
		case 5: // a GME run on its default scheduler
			_, err = gme.Run(gme.RunConfig{N: n, Sessions: 2, Entries: 2, KeepEvents: i%2 == 0})
		case 6: // a timed Fischer run on its own seeded scheduler
			_, err = semisync.Run(semisync.RunConfig{N: n, Delta: 3, Passages: 2, Timed: true, Seed: int64(i),
				Scorers: []model.Scorer{model.ModelDSM}})
		}
		if err != nil {
			t.Fatalf("deployment %d (%s, n=%d): %v", i, alg.Name, n, err)
		}
	}

	if !reflect.DeepEqual(cert.Events, certEvents) {
		t.Error("a later deployment overwrote the certificate's trace")
	}
	if !reflect.DeepEqual(cert.Owners, certOwners) {
		t.Error("a later deployment overwrote the certificate's owners")
	}
	if !reflect.DeepEqual(res.Events, resEvents) {
		t.Error("a later deployment overwrote the KeepEvents result's trace")
	}
	if got := ownersOf(res.OwnerFunc(), span); !reflect.DeepEqual(got, resOwners) {
		t.Errorf("the KeepEvents result's OwnerFunc changed: %v, was %v", got, resOwners)
	}
	if !reflect.DeepEqual(map[memsim.PID][]memsim.Value(returns), resReturns) {
		t.Errorf("a later run overwrote the collected returns: %v, was %v", returns, resReturns)
	}
	if !reflect.DeepEqual(lock.Events, lockEvents) || lock.Passages != lockPassages {
		t.Error("a later deployment overwrote the KeepEvents lock result")
	}
	for i, r := range stream.Reports {
		if !reflect.DeepEqual(*r, streamReports[i]) {
			t.Errorf("a later run overwrote the streaming result's %s report: %+v, was %+v", scorers[i].Name(), *r, streamReports[i])
		}
	}

	// Certificates released between later runs hand their trace, owners
	// and rounds to the certificates after them, never to one that was
	// kept: 12 more adversary runs of varied size, each released at once,
	// with a harness run between them.
	if len(certRounds) == 0 {
		t.Fatal("the kept certificate has no rounds to check")
	}
	for i := 0; i < 12; i++ {
		alg := algs[i%len(algs)]
		released, err := lowerbound.Run(lowerbound.Config{Algorithm: alg, N: 8 + 12*(i%5), C: 1 + i%3})
		if err != nil {
			t.Fatalf("adversary run %d (%s): %v", i, alg.Name, err)
		}
		released.Release()
		if _, err := Run(Config{Algorithm: alg, N: 4 + i, MaxPolls: 3, SignalAfter: 4 + i, KeepEvents: i%2 == 0}); err != nil {
			t.Fatalf("harness run %d (%s): %v", i, alg.Name, err)
		}
	}
	if !reflect.DeepEqual(cert.Events, certEvents) {
		t.Error("a released certificate's successor overwrote the kept certificate's trace")
	}
	if !reflect.DeepEqual(cert.Owners, certOwners) {
		t.Error("a released certificate's successor overwrote the kept certificate's owners")
	}
	if !reflect.DeepEqual(cert.Rounds, certRounds) {
		t.Error("a later run overwrote the kept certificate's rounds")
	}
}

// TestWarmRunAllocs pins the allocations of a warm signaling run, a warm
// lock run and a pair of lock runs whose locks differ. Their workloads,
// frame storage (every call is built in a slot a pooled workload kept, or
// in a frame of its type set aside by another run), spec checker,
// machines, controllers, accumulators, PRNG sources and the default
// round-robin scheduler come from pools, so what is left is mostly the
// instance and the result; a run that stops recycling one of the pooled
// parts exceeds its pin.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	scorers := []model.Scorer{model.ModelCC, model.ModelDSM}
	runs := []struct {
		name string
		pin  float64
		run  func() error
	}{
		{"core.Run fixed-waiters n=16", 8, func() error {
			_, err := Run(Config{Algorithm: signal.FixedWaiters(), N: 16, MaxPolls: 4, SignalAfter: 16, Scorers: scorers})
			return err
		}},
		{"mutex.Run mcs n=8 on the default scheduler", 9, func() error {
			_, err := mutex.Run(mutex.RunConfig{Lock: mutex.MCS(), N: 8, Passages: 4, Scorers: scorers})
			return err
		}},
		// Each run finds its slots holding the other lock's passage
		// sections and sets them aside.
		{"mutex.Run alternating tas and mcs n=8", 16, func() error {
			for _, lock := range []mutex.Algorithm{mutex.TAS(), mutex.MCS()} {
				if _, err := mutex.Run(mutex.RunConfig{Lock: lock, N: 8, Passages: 4, Scorers: scorers}); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, r := range runs {
		run := func() {
			if err := r.run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		got := testing.AllocsPerRun(50, run)
		t.Logf("a warm %s allocates %.0f times (pin %.0f)", r.name, got, r.pin)
		if got > r.pin {
			t.Errorf("a warm %s allocates %.0f times, pinned at %.0f", r.name, got, r.pin)
		}
	}
}
