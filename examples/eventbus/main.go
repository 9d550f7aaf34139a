// Eventbus: the final Section 7 variant, live — many waiters AND many
// signalers, none fixed in advance. Three producers race to announce the
// same event ("configuration changed"); whichever wins a one-step
// Test-And-Set election performs the actual delivery through the F&I
// registration queue, and the losers' Signal calls complete only after
// delivery, preserving Specification 4.1 for every caller.
//
//	go run ./examples/eventbus
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/signal"
)

func main() {
	const (
		consumers = 8
		producers = 3
		n         = consumers + producers
	)
	waiters := make([]memsim.PID, consumers)
	for i := range waiters {
		waiters[i] = memsim.PID(i)
	}
	signalers := make([]memsim.PID, producers)
	for i := range signalers {
		signalers[i] = memsim.PID(consumers + i)
	}

	returns := signal.Returns{}
	res, err := core.Run(core.Config{
		Algorithm:   signal.MultiSignaler(),
		N:           n,
		Waiters:     waiters,
		Signalers:   signalers,
		MaxPolls:    200,
		SignalAfter: 3 * consumers,
		Scheduler:   sched.NewRandom(42),
		Scorers:     []model.Scorer{model.ModelDSM},
		Sink:        returns.Observe,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Violations) > 0 {
		log.Fatalf("spec violations: %v", res.Violations)
	}

	fmt.Printf("%d consumers, %d racing producers, %d steps\n", consumers, producers, res.Steps)
	for _, s := range signalers {
		fmt.Printf("producer p%d: Signal completed (%d call)\n", s, len(returns[s]))
	}
	delivered := 0
	var order []int
	for _, w := range waiters {
		rets := returns[w]
		if len(rets) > 0 && rets[len(rets)-1] == 1 {
			delivered++
			order = append(order, int(w))
		}
	}
	sort.Ints(order)
	fmt.Printf("event observed by %d/%d consumers: %v\n", delivered, consumers, order)

	dsm := res.Score(model.ModelDSM)
	fmt.Printf("DSM amortized RMRs: %.2f (flat in the number of participants — the\n", dsm.Amortized())
	fmt.Println("F&I queue plus one-step election keep every role O(1) except the")
	fmt.Println("single elected deliverer, which pays O(k) for k registered consumers)")
}
