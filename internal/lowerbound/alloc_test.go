package lowerbound

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/signal"
)

// measure reports the allocations and bytes of one call of f.
func measure(f func()) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestAdversaryRunAllocs: a warm Run whose certificate is released
// allocates what a warm deployment of the algorithm allocates, the
// certificate's header and detail, and a small constant that does not
// grow with n or with the trace. Every call starts in the pooled
// execution's retained frame storage, so a warm run builds no frame. The builder with its bookkeeping and the regularity audit's
// relations come from the builder pool, and the trace, owners and rounds
// from the storage released certificates return. Each size is measured
// right after a run of the other, so storage that served a small
// certificate must still serve a large one.
func TestAdversaryRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	// One P, as testing.AllocsPerRun runs: a pool's item put on one P is
	// not found on another's first Get.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alg := signal.FixedWaiters()
	// The reference: a deployment of the algorithm alone.
	deploy := func(n int) {
		exec, err := alg.Deploy(n)
		if err != nil {
			t.Fatal(err)
		}
		exec.Release()
	}
	var cert *Certificate
	run := func(n int) {
		var err error
		if cert, err = Run(Config{Algorithm: alg, N: n, C: 2}); err != nil {
			t.Fatal(err)
		}
		if len(cert.Events) != cap(cert.Events) {
			t.Errorf("certificate trace has capacity %d for %d events", cap(cert.Events), len(cert.Events))
		}
	}
	sizes := []int{64, 256}
	// Warm the pools: the deployment's, the builder's and, with a
	// released certificate, the certificate storage's.
	for _, n := range sizes {
		for range 2 {
			deploy(n)
			run(n)
			cert.Release()
		}
	}
	for _, n := range sizes {
		deployAllocs, deployBytes := measure(func() { deploy(n) })
		allocs, bytes := measure(func() { run(n) })
		events := len(cert.Events)
		header := uint64(unsafe.Sizeof(*cert)) + uint64(len(cert.Detail))
		cert.Release()
		t.Logf("n=%d: a warm Run allocates %d times, %d bytes, for %d events; a warm deployment %d times, %d bytes",
			n, allocs, bytes, events, deployAllocs, deployBytes)
		// The certificate header, its detail string, the ledger's owner
		// method value and what formatting the detail takes.
		const constAllocs, constBytes = 8, 512
		if max := deployAllocs + constAllocs; allocs > max {
			t.Errorf("n=%d: a warm Run allocates %d times, want at most the deployment's %d plus %d",
				n, allocs, deployAllocs, constAllocs)
		}
		if max := deployBytes + header + constBytes; bytes > max {
			t.Errorf("n=%d: a warm Run allocates %d bytes, want at most the deployment's %d, the header's %d and %d",
				n, bytes, deployBytes, header, constBytes)
		}
	}
}
