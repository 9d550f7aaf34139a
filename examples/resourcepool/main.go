// Resourcepool: the paper's canonical signaling scenario — "a shared
// resource has been released" (Section 4). A holder owns a resource guarded
// by an MCS queue lock; a dynamically determined set of consumers polls for
// the release announcement, then briefly acquires the resource themselves.
//
// The example composes three substrates of this repository inside one
// simulated program: the MCS lock (internal/mutex), the registered-waiters
// signaling algorithm (internal/signal, run through the memsim.Blocking
// adapter), and the cost models (internal/model).
//
//	go run ./examples/resourcepool
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/signal"
)

const (
	consumers = 6
	nprocs    = consumers + 1 // process 6 is the holder/signaler
)

func main() {
	m := memsim.NewMachine(nprocs)

	lockAlg := mutex.MCS()
	lock, err := lockAlg.New(m, nprocs)
	if err != nil {
		log.Fatal(err)
	}
	sigAlg := signal.RegisteredWaiters()
	inst, err := sigAlg.New(m, nprocs)
	if err != nil {
		log.Fatal(err)
	}
	resource := m.Alloc(memsim.NoOwner, "resource", 1, 0)

	ctl := memsim.NewController(m)
	defer ctl.Close()

	// The holder works on the resource, releases it, and announces the
	// release through Signal().
	holder := memsim.PID(nprocs - 1)
	signal, err := inst.ResumableProgram(holder, memsim.CallSignal)
	if err != nil {
		log.Fatal(err)
	}
	holderProg := func(p *memsim.Proc) memsim.Value {
		lock.Acquire(p)
		p.Write(resource, 42) // produce
		lock.Release(p)
		return memsim.Blocking(signal)(p) // announce the release
	}

	// Consumers poll for the announcement, then take the lock and read
	// the resource.
	consumerProg := func(pid memsim.PID) memsim.Program {
		poll, err := inst.ResumableProgram(pid, memsim.CallPoll)
		if err != nil {
			log.Fatal(err)
		}
		return func(p *memsim.Proc) memsim.Value {
			if memsim.Blocking(poll)(p) == 0 {
				return 0 // not released yet; call again later
			}
			lock.Acquire(p)
			v := p.Read(resource)
			lock.Release(p)
			return v
		}
	}

	// Drive everything under a seeded random scheduler.
	got := make(map[memsim.PID]memsim.Value)
	started := map[memsim.PID]bool{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < consumers; i++ {
		pid := memsim.PID(i)
		if err := ctl.StartCall(pid, "consume", consumerProg(pid)); err != nil {
			log.Fatal(err)
		}
	}
	steps := 0
	for len(got) < consumers && steps < 1_000_000 {
		var ready []memsim.PID
		for i := 0; i < nprocs; i++ {
			pid := memsim.PID(i)
			if ret, done := ctl.CallEnded(pid); done {
				if _, err := ctl.FinishCall(pid); err != nil {
					log.Fatal(err)
				}
				if pid != holder {
					if ret != 0 {
						got[pid] = ret
					} else if err := ctl.StartCall(pid, "consume", consumerProg(pid)); err != nil {
						log.Fatal(err)
					}
				}
			}
			if ctl.Idle(pid) && pid == holder && !started[holder] && steps > 30 {
				started[holder] = true
				if err := ctl.StartCall(holder, "release", holderProg); err != nil {
					log.Fatal(err)
				}
			}
			if _, ok := ctl.Pending(pid); ok {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			continue
		}
		if _, err := ctl.Step(ready[rng.Intn(len(ready))]); err != nil {
			log.Fatal(err)
		}
		steps++
	}

	for pid, v := range got {
		if v != 42 {
			log.Fatalf("consumer %d read %d, want 42", pid, v)
		}
	}
	fmt.Printf("all %d consumers observed the released resource after %d steps\n",
		len(got), steps)
	for _, cm := range []model.CostModel{model.ModelCC, model.ModelDSM} {
		rep := cm.Score(ctl.Events(), m.Owner, nprocs)
		fmt.Printf("%-10s total RMRs %-5d worst-case/process %-4d amortized %.2f\n",
			cm.Name(), rep.Total, rep.Max(), rep.Amortized())
	}
}
