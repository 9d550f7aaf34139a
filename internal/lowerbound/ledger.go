package lowerbound

import (
	"repro/internal/memsim"
	"repro/internal/model"
)

// ledger keeps the running quantities of one execution's history that the
// construction reads, so the execution need not retain its trace: per-
// process DSM RMRs (the Lemma 6.11 counting), who participated (Par of
// Definition 6.3), whether a Poll call went remote (stability,
// Definition 6.8), and whose module was written (the fresh signaler of
// Lemma 6.13). It observes its execution as an attached memsim.EventSink;
// after a Reset of that execution the ledger must be reset too. A ledger
// is reused across executions: attach sizes it for the next one.
type ledger struct {
	owner func(memsim.Addr) memsim.PID
	// rmrs counts each process's DSM RMRs (model.IsRemoteDSM).
	rmrs []int
	// participated marks the processes that performed an access.
	participated []bool
	// callRemote marks the processes whose current call (or last call,
	// once it ended) performed a remote access; a call start clears it.
	callRemote []bool
	// written marks the modules a nontrivial operation wrote, and
	// writtenByOther those written by a process other than their owner.
	written        []bool
	writtenByOther []bool
	// trace collects every event while record is set (the certificate's
	// replay).
	trace  []memsim.Event
	record bool
	// sink is observe as an EventSink, made once per ledger.
	sink memsim.EventSink
}

// attach zeroes l, sized for e's processes, and makes it observe every
// later event of e.
func (l *ledger) attach(e *memsim.Execution) {
	n := e.N()
	l.owner = e.Machine().OwnerFunc()
	l.rmrs = zeroed(l.rmrs, n)
	l.participated = zeroed(l.participated, n)
	l.callRemote = zeroed(l.callRemote, n)
	l.written = zeroed(l.written, n)
	l.writtenByOther = zeroed(l.writtenByOther, n)
	if l.sink == nil {
		l.sink = l.observe
	}
	e.Attach(l.sink)
}

// observe folds one trace event into the ledger.
func (l *ledger) observe(ev memsim.Event) {
	if l.record {
		l.trace = append(l.trace, ev)
	}
	switch ev.Kind {
	case memsim.EvCallStart:
		l.callRemote[ev.PID] = false
	case memsim.EvAccess:
		l.participated[ev.PID] = true
		if model.IsRemoteDSM(ev.PID, ev.Acc.Addr, l.owner) {
			l.rmrs[ev.PID]++
			l.callRemote[ev.PID] = true
		}
		if q := l.owner(ev.Acc.Addr); ev.Res.Wrote && q != memsim.NoOwner {
			l.written[q] = true
			if ev.PID != q {
				l.writtenByOther[q] = true
			}
		}
	}
}

// reset empties the ledger, for an execution rewound with Reset.
func (l *ledger) reset() {
	clear(l.rmrs)
	clear(l.participated)
	clear(l.callRemote)
	clear(l.written)
	clear(l.writtenByOther)
}
