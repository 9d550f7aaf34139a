package explore

import (
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// FuzzIndependence drives the independence oracle's soundness property
// directly: at a fuzzer-chosen node of a fuzzer-chosen workload, every
// ordered pair of enabled choices the oracle claims commuting must (a)
// leave the second choice enabled after the first applies and (b) reach
// the identical post-settle canonical state — spec-monitor bits included
// — in either application order. Sleep-set pruning is sound exactly
// because skipped schedules are chains of such swaps.
func FuzzIndependence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 0, 1})
	f.Add([]byte{2, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{7, 0, 2, 2, 0, 1, 1, 3})
	f.Add([]byte{5, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})

	cfgs := seedConfigs()
	for name, cfg := range symmetricConfigs() {
		cfgs[name] = cfg
	}
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := cfgs[names[int(data[0])%len(names)]]
		e, err := newMonitor(cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		// Walk a prefix chosen by the remaining bytes, leaving two choices
		// of budget headroom irrelevant: the engine itself has no depth
		// bound, only the DFS does.
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
		// reapply finds u's position in the settled child and applies it,
		// failing the test if the oracle-claimed-independent u vanished.
		reapply := func(u engine.Choice, after []engine.Choice) bool {
			for i, c := range after {
				if c.PID == u.PID && c.Start == u.Start {
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
			for _, u := range choices {
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
				if !e.Independent(u, c, cAcc) {
					e.Restore(node)
					continue
				}
				if !reapply(u, e.Settle()) {
					t.Fatalf("oracle claimed p%d's choice independent of applying p%d's, but it is no longer enabled",
						u.PID, c.PID)
				}
				e.Settle()
				keyCU := e.StateKey()
				e.Restore(node)

				ui := -1
				for i, v := range choices {
					if v.PID == u.PID && v.Start == u.Start {
						ui = i
						break
					}
				}
				if err := e.Apply(choices[ui], ui); err != nil {
					t.Fatalf("apply u: %v", err)
				}
				if !reapply(c, e.Settle()) {
					t.Fatalf("p%d's choice vanished after applying independent p%d's", c.PID, u.PID)
				}
				e.Settle()
				keyUC := e.StateKey()
				e.Restore(node)

				if keyCU != keyUC {
					t.Fatalf("oracle claimed p%d (start=%v) and p%d (start=%v) commute, but the two orders reach different canonical states",
						c.PID, c.Start, u.PID, u.Start)
				}
			}
		}
		e.Release(node)
	})
}
