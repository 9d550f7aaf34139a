package search

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// FuzzIndependence drives the search policy's independence oracle
// directly, under both architecture models: at a fuzzer-chosen node of a
// fuzzer-chosen workload, every ordered pair of enabled choices the
// oracle claims commuting must (a) leave the second choice enabled after
// the first applies, (b) reach the identical post-settle canonical state
// — pricing state included — and (c) bill the identical path cost in
// either application order, and no pair involving a fault may be claimed
// at all. Sleep-set pruning under an order-invariant model is sound
// exactly because skipped schedules are chains of such swaps.
func FuzzIndependence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1})
	f.Add([]byte{2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{7, 0, 2, 2, 0, 1, 1, 3})
	f.Add([]byte{5, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})
	f.Add([]byte{11, 1, 0, 2, 1, 0, 3})
	f.Add([]byte{22, 2, 2, 1, 0, 0, 1, 2})
	f.Add([]byte{37, 0, 1, 3, 3, 1, 0, 2, 2})
	f.Add([]byte{48, 48, 49, 50, 48, 48}) // a same-address pair that is not read-only

	var cfgs []Config
	for _, alg := range signal.All() {
		if !alg.Variant.Polling {
			continue
		}
		for _, m := range []model.Scorer{model.ModelDSM, model.ModelCC} {
			for _, faults := range []int{0, 1} {
				cfg := digestConfig(alg, m, faults)
				cfg.MaxDepth = 10
				if _, err := newPricer(cfg); err == nil {
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := cfgs[int(data[0])%len(cfgs)]
		e, err := newPricer(cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		walk := data[1:]
		if len(walk) > cfg.MaxDepth {
			walk = walk[:cfg.MaxDepth]
		}
		for _, b := range walk {
			choices := e.Settle()
			if len(choices) == 0 {
				return
			}
			if err := e.Apply(choices[int(b)%len(choices)], 0); err != nil {
				t.Fatalf("prefix apply: %v", err)
			}
		}
		choices := e.Settle()
		if len(choices) < 2 {
			return
		}
		same := func(a, b engine.Choice) bool {
			return a.PID == b.PID && a.Start == b.Start && a.Fault == b.Fault
		}
		// reapply finds u's position in the settled child and applies it,
		// failing the test if the oracle-claimed-independent u vanished.
		reapply := func(u engine.Choice, after []engine.Choice) bool {
			for i, c := range after {
				if same(c, u) {
					if err := e.Apply(c, i); err != nil {
						t.Fatalf("second apply: %v", err)
					}
					return true
				}
			}
			return false
		}
		node := e.Save()
		for ci, c := range choices {
			for ui, u := range choices {
				if u.PID == c.PID {
					continue
				}
				var cAcc memsim.Access
				if !c.Start {
					cAcc = e.Pending(c.PID)
				}
				if err := e.Apply(c, ci); err != nil {
					t.Fatalf("apply c: %v", err)
				}
				costCU := e.step
				claimed := e.Independent(u, c, cAcc)
				if claimed && (u.Fault != memsim.FaultNone || c.Fault != memsim.FaultNone) {
					t.Fatalf("oracle claimed independence for a fault pair (%v vs %v)", u, c)
				}
				if !claimed {
					e.Restore(node)
					continue
				}
				if !reapply(u, e.Settle()) {
					t.Fatalf("oracle claimed %v independent of applying %v, but it is no longer enabled", u, c)
				}
				costCU += e.step
				e.Settle()
				keyCU := e.StateKey()
				e.Restore(node)

				if err := e.Apply(u, ui); err != nil {
					t.Fatalf("apply u: %v", err)
				}
				costUC := e.step
				if !reapply(c, e.Settle()) {
					t.Fatalf("%v vanished after applying independent %v", c, u)
				}
				costUC += e.step
				e.Settle()
				keyUC := e.StateKey()
				e.Restore(node)

				if keyCU != keyUC {
					t.Fatalf("oracle claimed %v and %v commute, but the two orders reach different canonical states", c, u)
				}
				if costCU != costUC {
					t.Fatalf("oracle claimed %v and %v commute, but the two orders bill %d and %d RMRs", c, u, costCU, costUC)
				}
			}
		}
		e.Release(node)
	})
}
