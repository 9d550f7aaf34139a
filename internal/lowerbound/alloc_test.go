package lowerbound

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// TestAdversaryRunAllocs: a warm Run allocates the certificate's own
// storage plus a small constant. The constant covers the run's dense
// bookkeeping (by PID and by address, sized by n once per run), the
// regularity audit's relations and the deployment's frame templates; it
// leaves no room for per-round maps, a second deployment or a trace grown
// by doubling.
func TestAdversaryRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const n = 256
	cfg := Config{Algorithm: signal.FixedWaiters(), N: n, C: 2}
	run := func() *Certificate {
		cert, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cert
	}
	run() // warm the execution pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cert := run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	certBytes := uint64(unsafe.Sizeof(*cert)) +
		uint64(cap(cert.Events))*uint64(unsafe.Sizeof(memsim.Event{})) +
		uint64(cap(cert.Owners))*uint64(unsafe.Sizeof(memsim.PID(0))) +
		uint64(cap(cert.Rounds))*uint64(unsafe.Sizeof(RoundReport{})) +
		uint64(len(cert.Detail))
	if cap(cert.Events) != len(cert.Events) {
		t.Errorf("certificate trace has capacity %d for %d events", cap(cert.Events), len(cert.Events))
	}
	t.Logf("a warm Run allocates %d times, %d bytes; the certificate holds %d bytes", allocs, bytes, certBytes)
	// One frame template per process, minted by the deployment, and a
	// constant number of slices and strings.
	if maxAllocs := uint64(n + 64); allocs > maxAllocs {
		t.Errorf("a warm Run allocates %d times, want at most %d", allocs, maxAllocs)
	}
	if slack := uint64(96 << 10); bytes > certBytes+slack {
		t.Errorf("a warm Run allocates %d bytes, want at most the certificate's %d plus %d",
			bytes, certBytes, slack)
	}
}
