package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/progress"
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
// owners, and a KeepEvents result's trace, OwnerFunc and Returns (whose
// workload's return log is recycled too), are compared with deep copies
// after 20 more deployments have drawn machines, controllers, executions
// and return logs from the pools, most of them retaining a trace of their
// own.
func TestReleasedStorageNotShared(t *testing.T) {
	cert, err := lowerbound.Run(lowerbound.Config{Algorithm: signal.FixedWaiters(), N: 16, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	certEvents, certOwners := slices.Clone(cert.Events), slices.Clone(cert.Owners)

	res, err := Run(Config{
		Algorithm:   signal.QueueSignal(),
		N:           6,
		MaxPolls:    4,
		SignalAfter: 12,
		KeepEvents:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	span := addrSpan(res.Events)
	resEvents, resOwners := slices.Clone(res.Events), ownersOf(res.OwnerFunc(), span)
	resReturns := map[memsim.PID][]memsim.Value{}
	for pid, rets := range res.Returns {
		resReturns[pid] = slices.Clone(rets)
	}
	if len(certEvents) == 0 || len(resEvents) == 0 || span == 0 || len(resReturns) == 0 {
		t.Fatal("nothing retained to check")
	}

	algs := []signal.Algorithm{signal.Flag(), signal.CASRegister(), signal.LLSCRegisterRW(), signal.MultiSignaler()}
	for i := 0; i < 20; i++ {
		alg := algs[i%len(algs)]
		n := 4 + i
		var err error
		switch i % 4 {
		case 0: // an adversary run: two executions, one replayed with retention
			_, err = lowerbound.Run(lowerbound.Config{Algorithm: alg, N: n, C: 2})
		case 1: // a harness run that keeps its trace
			_, err = Run(Config{Algorithm: alg, N: n, MaxPolls: 3, SignalAfter: n, KeepEvents: true})
		case 2: // a harness run that releases its deployment
			_, err = Run(Config{Algorithm: alg, N: n, MaxPolls: 3, SignalAfter: n,
				Scorers: []model.Scorer{model.ModelDSM}})
		case 3: // one deployment reset between probes, then released
			_, err = progress.CheckWaitFree(alg, n, 4*n, memsim.CallPoll)
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
	if !reflect.DeepEqual(res.Returns, resReturns) {
		t.Errorf("a later run overwrote the result's Returns: %v, was %v", res.Returns, resReturns)
	}
}
