package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
)

// buildEvents fabricates access events; owner mapping is supplied per test.
func ev(pid memsim.PID, op memsim.Op, addr memsim.Addr, wrote bool) memsim.Event {
	return memsim.Event{
		Kind: memsim.EvAccess,
		PID:  pid,
		Acc:  memsim.Access{Op: op, Addr: addr},
		Res:  memsim.Result{Wrote: wrote, OK: true},
	}
}

func ownerOf(m map[memsim.Addr]memsim.PID) func(memsim.Addr) memsim.PID {
	return func(a memsim.Addr) memsim.PID {
		if o, ok := m[a]; ok {
			return o
		}
		return memsim.NoOwner
	}
}

func TestDSMLocality(t *testing.T) {
	owner := ownerOf(map[memsim.Addr]memsim.PID{0: 0, 1: 1})
	events := []memsim.Event{
		ev(0, memsim.OpRead, 0, false), // local
		ev(0, memsim.OpRead, 1, false), // remote
		ev(0, memsim.OpRead, 2, false), // global: remote
		ev(1, memsim.OpWrite, 1, true), // local
		ev(1, memsim.OpWrite, 0, true), // remote
	}
	rep := ModelDSM.Score(events, owner, 2)
	if rep.PerProc[0] != 2 || rep.PerProc[1] != 1 {
		t.Fatalf("PerProc = %v, want [2 1]", rep.PerProc)
	}
	if rep.Total != 3 || rep.Messages != 3 {
		t.Fatalf("Total = %d Messages = %d, want 3 3", rep.Total, rep.Messages)
	}
}

// TestCCRepeatedReads verifies the paper's Section 2 CC rule: a sequence of
// reads of one location by one process costs a single RMR as long as no
// other process performs a nontrivial operation on it.
func TestCCRepeatedReads(t *testing.T) {
	owner := ownerOf(nil)
	var events []memsim.Event
	for i := 0; i < 10; i++ {
		events = append(events, ev(1, memsim.OpRead, 0, false))
	}
	rep := ModelCC.Score(events, owner, 2)
	if rep.PerProc[1] != 1 {
		t.Fatalf("10 uninterrupted reads cost %d RMRs, want 1", rep.PerProc[1])
	}

	// An intervening remote nontrivial operation invalidates the copy.
	events = append(events, ev(0, memsim.OpWrite, 0, true))
	events = append(events, ev(1, memsim.OpRead, 0, false))
	rep = ModelCC.Score(events, owner, 2)
	if rep.PerProc[1] != 2 {
		t.Fatalf("read after invalidation cost %d RMRs total, want 2", rep.PerProc[1])
	}
	if rep.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", rep.Invalidations)
	}
}

// TestCCFailedCASDoesNotInvalidate checks that a trivial operation (failed
// CAS overwrites nothing) leaves cached copies intact.
func TestCCFailedCASDoesNotInvalidate(t *testing.T) {
	owner := ownerOf(nil)
	events := []memsim.Event{
		ev(1, memsim.OpRead, 0, false),
		ev(0, memsim.OpCAS, 0, false), // failed CAS: trivial
		ev(1, memsim.OpRead, 0, false),
	}
	rep := ModelCC.Score(events, owner, 2)
	if rep.PerProc[1] != 1 {
		t.Fatalf("reads around failed CAS cost %d RMRs, want 1", rep.PerProc[1])
	}
}

func TestCCWriteThroughVsWriteBack(t *testing.T) {
	owner := ownerOf(nil)
	var events []memsim.Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(0, memsim.OpWrite, 0, true))
	}
	wt := ModelCC.Score(events, owner, 1)
	if wt.PerProc[0] != 5 {
		t.Fatalf("write-through: %d RMRs, want 5", wt.PerProc[0])
	}
	// Note: the write-back model in this repository still charges each
	// write as an interconnect operation (conservative for upper bounds);
	// the difference shows in invalidation accounting.
	wb := ModelCCWriteBack.Score(events, owner, 1)
	if wb.Invalidations != 0 {
		t.Fatalf("uncontended write-back invalidations = %d, want 0", wb.Invalidations)
	}
}

// TestMessageModels compares Section 8's accounting: a write to a location
// cached by many readers generates one bus message, one message per copy
// under an ideal directory, and a broadcast under a small limited directory.
func TestMessageModels(t *testing.T) {
	owner := ownerOf(nil)
	n := 8
	var events []memsim.Event
	for i := 1; i < n; i++ { // 7 readers cache the flag
		events = append(events, ev(memsim.PID(i), memsim.OpRead, 0, false))
	}
	events = append(events, ev(0, memsim.OpWrite, 0, true)) // writer invalidates

	bus := ModelCC.Score(events, owner, n)
	ideal := ModelCCDirIdeal.Score(events, owner, n)
	limited := CCDirLimited(2).Score(events, owner, n)

	if bus.Messages != 8 { // 7 fetches + 1 broadcast write
		t.Fatalf("bus messages = %d, want 8", bus.Messages)
	}
	if ideal.Messages != 7+1+7 { // 7 fetches + write + 7 precise invalidations
		t.Fatalf("ideal directory messages = %d, want 15", ideal.Messages)
	}
	if limited.Messages != 7+1+(n-1) { // write overflows the directory: broadcast
		t.Fatalf("limited directory messages = %d, want %d", limited.Messages, 7+1+n-1)
	}
	// Section 8's inequality: invalidations never exceed RMRs.
	for _, rep := range []*Report{bus, ideal, limited} {
		if rep.Invalidations > rep.Total {
			t.Fatalf("%s: invalidations %d > RMRs %d", rep.Model, rep.Invalidations, rep.Total)
		}
	}
}

func TestReportAmortizedAndMax(t *testing.T) {
	rep := &Report{PerProc: []int{3, 0, 5, 0}, Total: 8}
	if got := rep.Amortized(); got != 4.0 {
		t.Fatalf("Amortized = %f, want 4", got)
	}
	if got := rep.Max(); got != 5 {
		t.Fatalf("Max = %d, want 5", got)
	}
	empty := &Report{PerProc: []int{0}}
	if empty.Amortized() != 0 {
		t.Fatal("empty report amortized should be 0")
	}
}

func TestModelNames(t *testing.T) {
	if ModelDSM.Name() != "DSM" {
		t.Fatal(ModelDSM.Name())
	}
	if ModelCC.Name() != "CC-WT/bus" {
		t.Fatal(ModelCC.Name())
	}
	if ModelCCWriteBack.Name() != "CC-WB/bus" {
		t.Fatal(ModelCCWriteBack.Name())
	}
	if CCDirLimited(4).Name() != "CC-WT/dir-limited" {
		t.Fatal(CCDirLimited(4).Name())
	}
	// Every knob combination: the protocol, then the message model's
	// suffix (none when it is unset or unknown).
	suffix := map[MsgModel]string{MsgBus: "/bus", MsgDirectoryIdeal: "/dir-ideal", MsgDirectoryLimited: "/dir-limited"}
	for _, wb := range []bool{false, true} {
		for msg := MsgModel(0); msg <= MsgDirectoryLimited+1; msg++ {
			want := "CC-WT"
			if wb {
				want = "CC-WB"
			}
			want += suffix[msg]
			if got := (CC{WriteBack: wb, Msg: msg, Limit: 3, EvictEvery: 2}).Name(); got != want {
				t.Errorf("CC{WriteBack: %v, Msg: %d}.Name() = %q, want %q", wb, msg, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = ModelCCDirIdeal.Name() }); n != 0 {
		t.Errorf("CC.Name allocates %v times, want 0", n)
	}
}

// TestCCInvariantsQuick checks, over random event streams, the Section 8
// inequality (invalidations <= RMRs) and message-model dominance
// (ideal-directory messages >= bus messages; limited >= ideal).
func TestCCInvariantsQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		ops := []memsim.Op{memsim.OpRead, memsim.OpWrite, memsim.OpCAS, memsim.OpLL,
			memsim.OpSC, memsim.OpFetchAdd, memsim.OpFetchStore, memsim.OpTestAndSet}
		var events []memsim.Event
		for i := 0; i < 120; i++ {
			op := ops[rng.Intn(len(ops))]
			wrote := false
			switch op {
			case memsim.OpWrite, memsim.OpFetchAdd, memsim.OpFetchStore, memsim.OpTestAndSet:
				wrote = true
			case memsim.OpCAS, memsim.OpSC:
				wrote = rng.Intn(2) == 0
			}
			events = append(events, memsim.Event{
				Kind: memsim.EvAccess,
				PID:  memsim.PID(rng.Intn(n)),
				Acc:  memsim.Access{Op: op, Addr: memsim.Addr(rng.Intn(4))},
				Res:  memsim.Result{Wrote: wrote, OK: true},
			})
		}
		owner := func(memsim.Addr) memsim.PID { return memsim.NoOwner }
		bus := ModelCC.Score(events, owner, n)
		ideal := ModelCCDirIdeal.Score(events, owner, n)
		limited := CCDirLimited(1).Score(events, owner, n)
		if bus.Invalidations > bus.Total {
			return false
		}
		if ideal.Messages < bus.Messages {
			return false
		}
		if limited.Messages < ideal.Messages {
			return false
		}
		// All three models agree on RMR counts (they differ only in
		// message accounting).
		return bus.Total == ideal.Total && bus.Total == limited.Total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCCEviction: Section 8's caveat — with spurious evictions the RMR
// count strictly exceeds the ideal-cache count for a read-heavy workload.
func TestCCEviction(t *testing.T) {
	owner := ownerOf(nil)
	var events []memsim.Event
	for i := 0; i < 30; i++ {
		events = append(events, ev(1, memsim.OpRead, 0, false))
	}
	ideal := ModelCC.Score(events, owner, 2)
	evicting := CC{Msg: MsgBus, EvictEvery: 5}.Score(events, owner, 2)
	if ideal.Total != 1 {
		t.Fatalf("ideal cache: %d RMRs, want 1", ideal.Total)
	}
	// Eviction fires before accesses 5,10,15,20,25,30, each forcing a
	// re-fetch, plus the initial cold miss: 7 RMRs.
	if evicting.Total != 7 {
		t.Fatalf("evicting cache: %d RMRs, want 7", evicting.Total)
	}
}
