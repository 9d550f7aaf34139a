package search

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
)

// The exhaustive search walks the schedule tree on the node-expansion
// core (internal/engine), exactly like the explorer's backtracking
// engine. What search adds is the cost dimension: the pricer below rides
// along the current path, feeds every applied access to a model
// accumulator, and forks the accumulator into each node snapshot so
// backtracking rewinds the pricing state too.

// pricer is the searcher's policy on the core: the accumulator pricing
// the current path, and the RMR cost of the last applied choice (the
// step a parent adds to its child's tail). The core is embedded, so a
// worker drives the pricer as its engine.
type pricer struct {
	*engine.Core

	acc  model.Accumulator
	step int
}

func newPricer(cfg Config) (*pricer, error) {
	x := &pricer{}
	core, err := engine.New(engine.Config{
		Name: "search", Factory: cfg.Factory, N: cfg.N, Scripts: cfg.Scripts, Faults: cfg.Faults,
	}, func(e *engine.Core) (engine.Policy, error) {
		x.acc = cfg.Model.Begin(cfg.N, e.Machine().OwnerFunc())
		if _, ok := x.acc.(model.ForkableAccumulator); !ok {
			return nil, fmt.Errorf("search: %s accumulator %T cannot fork; exhaustive search needs model.ForkableAccumulator (use ModeSample)",
				cfg.Model.Name(), x.acc)
		}
		if _, ok := x.acc.(model.ModelStateAppender); !ok {
			return nil, fmt.Errorf("search: %s accumulator %T has no canonical state encoding; exhaustive search needs model.ModelStateAppender (use ModeSample)",
				cfg.Model.Name(), x.acc)
		}
		return x, nil
	})
	if err != nil {
		return nil, err
	}
	x.Core = core
	return x, nil
}

// Started: a call start performs no access and costs nothing.
func (x *pricer) Started(memsim.PID, memsim.CallKind) { x.step = 0 }

// Accessed prices an applied access. A lost CAS is priced as the real
// CAS memory applied: the accumulator sees the true event.
func (x *pricer) Accessed(p memsim.PID, acc memsim.Access, res memsim.Result, fault memsim.FaultKind) {
	x.step = 0
	if x.acc.Add(memsim.Event{
		Kind: memsim.EvAccess, PID: p, Proc: x.Kind(p).String(),
		Acc: acc, Res: res, Fault: fault,
	}).RMR {
		x.step = 1
	}
}

func (x *pricer) Ended(memsim.PID) {}

// Crashed: a crash performs no access and costs nothing; its price is
// the restarted call's re-executed steps.
func (x *pricer) Crashed(memsim.PID) { x.step = 0 }

// forkAcc forks src, recycling spare's backing storage when the model
// supports it (both architecture models do).
func forkAcc(src, spare model.Accumulator) model.Accumulator {
	if r, ok := src.(model.ReusingForker); ok {
		return r.ForkReuse(spare)
	}
	return src.(model.ForkableAccumulator).Fork()
}

// SaveState forks the accumulator into the mark's value, recycling the
// mark's previous fork.
func (x *pricer) SaveState(spare any) any {
	old, _ := spare.(model.Accumulator)
	return forkAcc(x.acc, old)
}

// RestoreState re-forks the accumulator from the mark — into the
// pricer's discarded accumulator, which is exactly the spare storage the
// fork wants — so the mark stays pristine for further siblings.
func (x *pricer) RestoreState(saved any) {
	x.acc = forkAcc(saved.(model.Accumulator), x.acc)
}

func (x *pricer) AppendKeyHead(b []byte) []byte { return b }

// AppendKeyProc adds the kind of p's in-flight call (it drives the
// poll-stop rule). What the key deliberately omits: call counts (they
// only number trace events) and the explorer's specification-monitor
// bits (costs are prefix-insensitive, so merging histories with
// different spec-relevant pasts is sound here).
func (x *pricer) AppendKeyProc(b []byte, p memsim.PID) []byte {
	kind := memsim.CallKind(0)
	if x.Phase(p) != engine.Idle {
		kind = x.Kind(p)
	}
	return append(b, byte(kind))
}

// AppendKeyTail adds the cost model's canonical mutable state (the CC
// cache contents), because the maximal tail cost from a node is a
// function of machine state AND pricing state. The accumulated path cost
// stays out: a memoized tail cost is exact for any prefix cost — that is the
// cut's whole power.
func (x *pricer) AppendKeyTail(b []byte) []byte {
	return x.acc.(model.ModelStateAppender).AppendModelState(b)
}

// StartCommutes: costs are a function of the access sequence alone, so a
// call start — which touches its own process and feeds the accumulator
// nothing — commutes with everything.
func (x *pricer) StartCommutes(u, c engine.Choice) bool { return true }
