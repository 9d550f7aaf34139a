package leakcheck

import (
	"testing"
	"time"
)

// TestProbeCountsOnlyItsGoroutines: a goroutine started under a probe is
// counted until it exits, one started outside any probe never is, and
// nested starts inherit the label.
func TestProbeCountsOnlyItsGoroutines(t *testing.T) {
	stop := make(chan struct{})
	outside := make(chan struct{})
	go func() { <-outside }()
	defer close(outside)
	started := make(chan struct{})
	p := Run(func() {
		go func() {
			go func() { started <- struct{}{}; <-stop }()
			started <- struct{}{}
			<-stop
		}()
		<-started
		<-started
	})
	if n, stacks := p.Alive(); n != 2 {
		t.Fatalf("Alive = %d, want 2 (the goroutine and the one it started)\n%s", n, stacks)
	}
	if n, _ := Run(func() {}).Alive(); n != 0 {
		t.Fatalf("a probe with no goroutines counts %d", n)
	}
	close(stop)
	if n, stacks := p.Settle(5 * time.Second); n != 0 {
		t.Fatalf("%d goroutines still counted after they exited\n%s", n, stacks)
	}
}
