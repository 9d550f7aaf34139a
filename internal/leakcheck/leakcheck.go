// Package leakcheck finds the goroutines a piece of code leaves running.
// Run executes a function under a profiler label unique to that call.
// Every goroutine the function starts, directly or through others,
// inherits the label, so a Probe counts exactly those goroutines, read
// from the goroutine profile. Goroutines that other code starts or stops
// meanwhile (another test's workers still exiting, the runtime's own) do
// not affect the count, which a before/after runtime.NumGoroutine
// comparison cannot promise.
package leakcheck

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// labelKey is the profiler label key Run sets.
const labelKey = "leakcheck"

var runs atomic.Uint64

// Probe identifies the goroutines started during one Run.
type Probe struct{ label string }

// Run calls fn with a fresh label and returns the probe for the
// goroutines fn started.
func Run(fn func()) Probe {
	p := Probe{label: fmt.Sprintf("run-%d", runs.Add(1))}
	pprof.Do(context.Background(), pprof.Labels(labelKey, p.label), func(context.Context) { fn() })
	return p
}

// Alive returns how many goroutines started under p are still alive,
// and their stacks.
func (p Probe) Alive() (int, string) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		panic(err)
	}
	// The debug=1 profile groups identical goroutines into blank-line
	// separated records: "<count> @ <pcs>", then "# labels: {...}" when
	// the group is labelled, then the stack.
	want := fmt.Sprintf("%q:%q", labelKey, p.label)
	n := 0
	var stacks strings.Builder
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		sc := bufio.NewScanner(strings.NewReader(rec))
		var count int
		labelled := false
		for sc.Scan() {
			line := sc.Text()
			if head, _, ok := strings.Cut(line, " @ "); ok && count == 0 {
				count, _ = strconv.Atoi(head)
			}
			if strings.HasPrefix(line, "# labels: ") && strings.Contains(line, want) {
				labelled = true
			}
		}
		if labelled {
			n += count
			stacks.WriteString(rec)
			stacks.WriteString("\n\n")
		}
	}
	return n, stacks.String()
}

// Settle waits up to timeout for the goroutines started under p to exit,
// polling Alive, and returns its last answer. Code that joins its
// goroutines before returning can still leave them a moment to unwind.
func (p Probe) Settle(timeout time.Duration) (int, string) {
	deadline := time.Now().Add(timeout)
	for {
		n, stacks := p.Alive()
		if n == 0 || time.Now().After(deadline) {
			return n, stacks
		}
		time.Sleep(time.Millisecond)
	}
}
