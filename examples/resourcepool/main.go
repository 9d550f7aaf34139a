// Resourcepool: the paper's canonical signaling scenario — "a shared
// resource has been released" (Section 4). A holder owns a resource guarded
// by an MCS queue lock; a dynamically determined set of consumers polls for
// the release announcement, then briefly acquires the resource themselves.
//
// The example composes three substrates of this repository inside one
// simulated procedure: the MCS lock's section frames (internal/mutex), the
// registered-waiters signaling frames (internal/signal), and the cost
// models (internal/model), all driven by the workload harness
// (internal/harness).
//
//	go run ./examples/resourcepool
package main

import (
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/sched"
	"repro/internal/signal"
)

const (
	consumers = 6
	nprocs    = consumers + 1 // process 6 is the holder/signaler
	holder    = memsim.PID(nprocs - 1)
)

func main() {
	w := &pool{got: make(map[memsim.PID]memsim.Value)}
	res, err := harness.Run(harness.Config{
		Workload:  w,
		Scheduler: sched.NewRandom(3),
		MaxSteps:  1_000_000,
		Scorers:   []model.Scorer{model.ModelCC, model.ModelDSM},
		Sink:      w.observe,
	})
	if err != nil {
		log.Fatal(err)
	}

	for pid, v := range w.got {
		if v != 42 {
			log.Fatalf("consumer %d read %d, want 42", pid, v)
		}
	}
	fmt.Printf("all %d consumers observed the released resource after %d steps\n",
		len(w.got), res.Steps)
	for _, rep := range res.Reports {
		fmt.Printf("%-10s total RMRs %-5d worst-case/process %-4d amortized %.2f\n",
			rep.Model, rep.Total, rep.Max(), rep.Amortized())
	}
}

// pool is the workload: each consumer calls "consume" until a call
// returns the resource, and the holder calls "release" once, after 30
// steps.
type pool struct {
	lock     mutex.Lock
	inst     memsim.Instance
	resource memsim.Addr
	steps    int  // applied accesses, counted by observe
	released bool // the holder's call has started
	got      map[memsim.PID]memsim.Value
}

func (w *pool) N() int { return nprocs }

func (w *pool) Deploy(m *memsim.Machine) error {
	var err error
	if w.lock, err = mutex.MCS().New(m, nprocs); err != nil {
		return err
	}
	if w.inst, err = signal.RegisteredWaiters().New(m, nprocs); err != nil {
		return err
	}
	w.resource = m.Alloc(memsim.NoOwner, "resource", 1, 0)
	return nil
}

func (w *pool) Next(pid memsim.PID) (string, memsim.Resumable, bool) {
	if pid == holder {
		if w.released || w.steps <= 30 {
			return "", nil, false
		}
		w.released = true
		sig, err := w.inst.ResumableProgram(pid, memsim.CallSignal)
		if err != nil {
			log.Fatal(err)
		}
		return "release", &holderFrame{w: w, sig: sig}, true
	}
	if _, ok := w.got[pid]; ok {
		return "", nil, false
	}
	poll, err := w.inst.ResumableProgram(pid, memsim.CallPoll)
	if err != nil {
		log.Fatal(err)
	}
	return "consume", &consumerFrame{w: w, pid: pid, poll: poll}, true
}

func (w *pool) Done(pid memsim.PID, ret memsim.Value) {
	if pid != holder && ret != 0 {
		w.got[pid] = ret
	}
}

func (w *pool) observe(ev memsim.Event) {
	if ev.Kind == memsim.EvAccess {
		w.steps++
	}
}

// holderFrame works on the resource, releases it, and announces the
// release through Signal():
//
//	acquire; write(resource, 42); release; return Signal()
type holderFrame struct {
	w   *pool
	sec memsim.Resumable // the lock section in its phase
	sig memsim.Resumable
	pc  uint8
}

func (f *holderFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			f.sec, prev, f.pc = f.w.lock.AcquireFrame(holder), memsim.Result{}, 1
		case 1:
			if acc, ok := f.sec.Next(prev); ok {
				return acc, true
			}
			f.pc = 2
			return memsim.AccWrite(f.w.resource, 42), true // produce
		case 2:
			f.sec, prev, f.pc = f.w.lock.ReleaseFrame(holder), memsim.Result{}, 3
		case 3:
			if acc, ok := f.sec.Next(prev); ok {
				return acc, true
			}
			prev, f.pc = memsim.Result{}, 4
		default: // announce the release
			return f.sig.Next(prev)
		}
	}
}

func (f *holderFrame) Return() memsim.Value { return f.sig.Return() }

// CloneInto copies the frame with its lock section and Signal sub-frames,
// which a shallow copy would share with the original.
func (f *holderFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[holderFrame](dst)
	sec, sig := d.sec, d.sig
	*d = *f
	d.sec = memsim.CloneResumableInto(sec, f.sec)
	d.sig = memsim.CloneResumableInto(sig, f.sig)
	return d
}

// consumerFrame polls for the announcement, then takes the lock and reads
// the resource:
//
//	if !Poll() { return 0 }  // not released yet; call again later
//	acquire; v := read(resource); release; return v
type consumerFrame struct {
	w    *pool
	pid  memsim.PID
	poll memsim.Resumable
	sec  memsim.Resumable // the lock section in its phase
	v    memsim.Value
	pc   uint8
}

func (f *consumerFrame) Next(prev memsim.Result) (memsim.Access, bool) {
	for {
		switch f.pc {
		case 0:
			if acc, ok := f.poll.Next(prev); ok {
				return acc, true
			}
			if f.poll.Return() == 0 {
				return memsim.Access{}, false
			}
			f.sec, prev, f.pc = f.w.lock.AcquireFrame(f.pid), memsim.Result{}, 1
		case 1:
			if acc, ok := f.sec.Next(prev); ok {
				return acc, true
			}
			f.pc = 2
			return memsim.AccRead(f.w.resource), true
		case 2:
			f.v = prev.Val
			f.sec, prev, f.pc = f.w.lock.ReleaseFrame(f.pid), memsim.Result{}, 3
		default:
			return f.sec.Next(prev)
		}
	}
}

func (f *consumerFrame) Return() memsim.Value { return f.v }

// CloneInto copies the frame with its Poll and lock section sub-frames.
func (f *consumerFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	d := memsim.CloneTarget[consumerFrame](dst)
	poll, sec := d.poll, d.sec
	*d = *f
	d.poll = memsim.CloneResumableInto(poll, f.poll)
	d.sec = memsim.CloneResumableInto(sec, f.sec)
	return d
}
