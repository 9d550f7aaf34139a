package lowerbound

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/signal"
)

// TestConcurrentRunsMatchSerial: runs that share the builder and
// certificate storage pools from several goroutines, each releasing its
// certificate once it is checked, build certificates equal field for
// field to those of serial runs that release nothing. The sizes are E3G's
// and each goroutine visits them in its own order, so a builder or a
// certificate's storage that served one size serves another next.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	sizes := []int{16, 32, 64, 128, 256}
	want := make(map[int]*Certificate, len(sizes))
	for _, n := range sizes {
		cert, err := Run(Config{Algorithm: signal.FixedWaiters(), N: n, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = cert
	}
	const goroutines, laps = 4, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lap := range laps {
				for i := range sizes {
					n := sizes[(g+lap+i)%len(sizes)]
					cert, err := Run(Config{Algorithm: signal.FixedWaiters(), N: n, C: 2})
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(cert, want[n]) {
						errc <- fmt.Errorf("goroutine %d, N=%d: certificate differs from the serial run's:\n%+v\n%+v",
							g, n, summary(cert), summary(want[n]))
						return
					}
					cert.Release()
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
