package explore

// The fault-dimension battery of the explorer: k=0 (the disabled policy)
// must leave every result byte-identical to a fault-free run for every
// engine and worker count; the reduced engine must agree with the
// unreduced one on Check outcomes at k=1,2; and one seed algorithm —
// fixed-waiters under a single crash with owned-volatile memory — must
// exhibit a deterministic, lexicographically least spec violation that
// both independent engines pin to the same schedule.

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/signal"
)

// allFaults is the fullest policy at budget k (stable crashes).
func allFaults(k int) memsim.FaultPolicy {
	return memsim.FaultPolicy{Max: k, Kinds: memsim.SetCrash | memsim.SetLostCAS}
}

// TestFaultZeroIdentity: every way of writing the disabled policy — the
// zero value, a budget with no kinds, kinds with no budget — produces
// results deeply equal to the fault-free run, on every seed config,
// engine and worker count. This is the k=0 byte-identity regression the
// whole encoding strategy (fault choices appended last, faultsUsed keyed
// only when enabled) exists to uphold.
func TestFaultZeroIdentity(t *testing.T) {
	disabled := []memsim.FaultPolicy{
		{},
		{Max: 2},                       // kinds empty
		{Kinds: memsim.SetCrash},       // budget zero
		{Max: 0, Vol: memsim.VolOwned}, // volatility alone changes nothing
	}
	engines := []Engine{EngineReplay, EngineBacktrackDedup, EngineBacktrackDedupPOR}
	for name, cfg := range seedConfigs() {
		for _, engine := range engines {
			for _, workers := range []int{1, 2, 8} {
				base := cfg
				base.Engine = engine
				base.Workers = workers
				want, err := Run(base)
				if err != nil {
					t.Fatalf("%s/%v/w%d: %v", name, engine, workers, err)
				}
				for _, fp := range disabled {
					c := base
					c.Faults = fp
					got, err := Run(c)
					if err != nil {
						t.Fatalf("%s/%v/w%d/%v: %v", name, engine, workers, fp, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s/%v/w%d: disabled policy %+v changed the result:\n got %+v\nwant %+v",
							name, engine, workers, fp, got, want)
					}
				}
			}
		}
	}
}

// pinnedCrashConfig is the counterexample vehicle: fixed-waiters' Signal
// walks the waiter-owned V rows; a waiter that crashes after its
// registration write, with its owned words reverting (VolOwned), erases
// the evidence the next Poll needs — a genuine crash-robustness defect
// the fault dimension is built to surface.
func pinnedCrashConfig() Config {
	return Config{
		Factory: signal.FixedWaiters().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 12,
		Check:    specCheck,
		Faults:   memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash, Vol: memsim.VolOwned},
	}
}

// The lexicographically least violating schedule of pinnedCrashConfig and
// the exact violation it produces. Golden for the CI fault-smoke diff.
const (
	pinnedCrashSchedule  = "[p0+ p0 p0+ p0 p1+ p3+ p3 p3 p3 p1! p1+ p1]"
	pinnedCrashViolation = "spec violation (poll-false) by p1 call 0: Poll returned false but a Signal call completed at seq 11 before the poll began at seq 13"
)

// TestCrashCounterexamplePinned: both independent engines find the
// violation and report the identical lexicographically least schedule.
func TestCrashCounterexamplePinned(t *testing.T) {
	for _, engine := range []Engine{EngineReplay, EngineBacktrackDedup} {
		cfg := pinnedCrashConfig()
		cfg.Engine = engine
		cfg.Workers = 1
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("engine %v: crash-induced violation not found", engine)
		}
		msg := err.Error()
		if !strings.Contains(msg, pinnedCrashSchedule) {
			t.Errorf("engine %v: schedule not the pinned lex-least one:\n got %s\nwant substring %s",
				engine, msg, pinnedCrashSchedule)
		}
		if !strings.Contains(msg, pinnedCrashViolation) {
			t.Errorf("engine %v: violation differs:\n got %s\nwant substring %s",
				engine, msg, pinnedCrashViolation)
		}
	}
}

// TestCrashCounterexampleNeedsFaults: the same workload passes with the
// policy disabled and with crashes that lose only the frame (VolStable) —
// the violation is specifically about volatile owned memory.
func TestCrashCounterexampleNeedsFaults(t *testing.T) {
	cfg := pinnedCrashConfig()
	cfg.Faults = memsim.FaultPolicy{}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("fault-free run should pass: %v", err)
	}
	cfg.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash, Vol: memsim.VolStable}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("stable-memory crashes should pass: %v", err)
	}
}

// TestFaultReduceAgreesOnVerdict: at budgets 1 and 2 the reduced engine
// reaches the same Check outcome as the unreduced one on every seed
// config (fault choices never sleep, never donate sleep bits, and drain
// the sleep set below them — this test is the acceptance check of those
// three rules).
func TestFaultReduceAgreesOnVerdict(t *testing.T) {
	vols := []memsim.Volatility{memsim.VolStable, memsim.VolOwned}
	for name, cfg := range seedConfigs() {
		for _, k := range []int{1, 2} {
			for _, vol := range vols {
				fp := allFaults(k)
				fp.Vol = vol
				plain := cfg
				plain.Engine = EngineBacktrackDedup
				plain.Faults = fp
				_, plainErr := Run(plain)
				red := cfg
				red.Engine = EngineBacktrackDedupPOR
				red.Faults = fp
				_, redErr := Run(red)
				if (plainErr == nil) != (redErr == nil) {
					t.Errorf("%s k=%d vol=%v: verdicts differ: plain %v, reduced %v",
						name, k, vol, plainErr, redErr)
				}
			}
		}
	}
}

// FuzzFaultIndependence extends the independence-oracle soundness fuzz
// to fault-enabled schedule spaces: along fuzzer-chosen prefixes that may
// themselves crash processes and drop CAS responses, every ordered pair
// of enabled choices the oracle claims commuting must still reach the
// identical post-settle canonical state in either order. Fault choices
// are conservatively dependent with everything, so any pair involving
// one must be refused by the oracle — asserted directly below.
func FuzzFaultIndependence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 9, 0, 1})
	f.Add([]byte{3, 8, 8, 8, 2, 1, 0})
	f.Add([]byte{5, 2, 9, 9, 1, 4, 7, 0, 3})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 9, 9, 9, 9})

	cfgs := seedConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := cfgs[names[int(data[0])%len(names)]]
		fp := allFaults(1 + int(data[1])%2)
		if data[1]%2 == 1 {
			fp.Vol = memsim.VolOwned
		}
		cfg.Faults = fp
		e, err := newMonitor(cfg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		walk := data[2:]
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
		reapply := func(u engine.Choice, after []engine.Choice) bool {
			for i, c := range after {
				if c.PID == u.PID && c.Start == u.Start && c.Fault == u.Fault {
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
				if u.PID == c.PID && u.Fault == c.Fault {
					continue
				}
				var cAcc memsim.Access
				if !c.Start && c.Fault == memsim.FaultNone {
					cAcc = e.Pending(c.PID)
				}
				if err := e.Apply(c, ci); err != nil {
					t.Fatalf("apply c: %v", err)
				}
				claimed := e.Independent(u, c, cAcc)
				if (u.Fault != memsim.FaultNone || c.Fault != memsim.FaultNone) && claimed {
					t.Fatalf("oracle claimed independence for a fault pair (p%d fault=%v vs p%d fault=%v)",
						u.PID, u.Fault, c.PID, c.Fault)
				}
				if !claimed {
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
					if v.PID == u.PID && v.Start == u.Start && v.Fault == u.Fault {
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

// TestExploreFaultCheckpointCompat: the fault policy is part of the
// exploration snapshot fingerprint — a fault-enabled resume of a
// fault-free snapshot (and vice versa, and any policy change) is a clean
// CodeConflict; a matching policy resumes to the same deterministic
// result.
func TestExploreFaultCheckpointCompat(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	cfg.Engine = EngineBacktrackDedup
	faulty := cfg
	faulty.Faults = memsim.FaultPolicy{Max: 1, Kinds: memsim.SetCrash | memsim.SetLostCAS}

	t.Run("plain-to-faulty", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.rpck")
		if _, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		if _, err := RunCheckpointed(faulty, Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("fault-enabled resume of a fault-free snapshot: %v, want CodeConflict", err)
		}
	})
	t.Run("faulty-to-plain", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.rpck")
		if _, err := RunCheckpointed(faulty, Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		if _, err := RunCheckpointed(cfg, Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("fault-free resume of a fault-enabled snapshot: %v, want CodeConflict", err)
		}
	})
	t.Run("policy-change", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.rpck")
		if _, err := RunCheckpointed(faulty, Checkpoint{Path: path, Tag: "flag"}); err != nil {
			t.Fatalf("seed run: %v", err)
		}
		other := faulty
		other.Faults.Vol = memsim.VolOwned
		if _, err := RunCheckpointed(other, Checkpoint{Path: path, Tag: "flag", Resume: true}); errs.CodeOf(err) != errs.CodeConflict {
			t.Fatalf("policy-changed resume: %v, want CodeConflict", err)
		}
	})
	t.Run("same-policy-resumes", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.rpck")
		want, err := RunCheckpointed(faulty, Checkpoint{Path: path, Tag: "flag"})
		if err != nil {
			t.Fatalf("seed run: %v", err)
		}
		got, err := RunCheckpointed(faulty, Checkpoint{Path: path, Tag: "flag", Resume: true})
		if err != nil {
			t.Fatalf("matching resume: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("resume differs:\n got %+v\nwant %+v", got, want)
		}
	})
}
