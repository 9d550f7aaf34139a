package explore

import (
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// seedConfigs are the explorer workloads the repository has always tested;
// the backtracking engine must visit exactly the same maximal histories as
// the replay engine on each of them.
func seedConfigs() map[string]Config {
	cfgs := map[string]Config{
		"flag-2proc": {
			Factory: signal.Flag().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallSignal},
			},
			MaxDepth: 12,
			Check:    specCheck,
		},
		"single-waiter": {
			Factory: signal.SingleWaiter().New,
			N:       2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallSignal},
			},
			MaxDepth: 12,
			Check:    specCheck,
		},
		"multi-signaler": {
			Factory: signal.MultiSignaler().New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll},
				2: {memsim.CallSignal},
				3: {memsim.CallSignal},
			},
			MaxDepth: 10,
			Check:    specCheck,
		},
		"leader-blocking": {
			Factory: signal.LeaderBlocking().New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallWait},
				1: {memsim.CallWait},
				3: {memsim.CallSignal},
			},
			MaxDepth: 10,
			Check:    specCheck,
		},
	}
	for _, alg := range []signal.Algorithm{
		signal.FixedWaiters(), signal.RegisteredWaiters(), signal.QueueSignal(),
		signal.CASRegister(), signal.CASRegisterRW(), signal.LLSCRegister(), signal.LLSCRegisterRW(),
	} {
		cfgs[alg.Name] = Config{
			Factory: alg.New,
			N:       4,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll, memsim.CallPoll},
				1: {memsim.CallPoll, memsim.CallPoll},
				3: {memsim.CallSignal},
			},
			MaxDepth: 9,
			Check:    specCheck,
		}
	}
	return cfgs
}

// TestBacktrackMatchesReplay: with dedup off, the backtracking explorer
// visits the same set of maximal histories as the replay explorer on every
// seed config — same Paths, Truncated, MaxDepthReached and Check outcome.
func TestBacktrackMatchesReplay(t *testing.T) {
	for name, cfg := range seedConfigs() {
		t.Run(name, func(t *testing.T) {
			replayRes, replayErr := replayRun(cfg)
			backCfg := cfg
			backCfg.Engine = EngineBacktrack
			backRes, backErr := Run(backCfg)
			if (replayErr == nil) != (backErr == nil) {
				t.Fatalf("check outcomes differ: replay %v, backtrack %v", replayErr, backErr)
			}
			if replayRes.Paths != backRes.Paths ||
				replayRes.Truncated != backRes.Truncated ||
				replayRes.MaxDepthReached != backRes.MaxDepthReached {
				t.Fatalf("enumerations differ:\n replay:    %+v\n backtrack: %+v", replayRes, backRes)
			}
			t.Logf("%d paths (%d truncated), max depth %d",
				backRes.Paths, backRes.Truncated, backRes.MaxDepthReached)
		})
	}
}

// TestDedupHoldsOnSeedConfigs: the deduplicating engine reaches the same
// verdict (spec holds) on every seed config and actually prunes something
// on the contended ones.
func TestDedupHoldsOnSeedConfigs(t *testing.T) {
	pruned := 0
	for name, cfg := range seedConfigs() {
		cfg := cfg
		cfg.Engine = EngineBacktrackDedup
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Engine != EngineBacktrackDedup {
			t.Fatalf("%s: ran on engine %d", name, res.Engine)
		}
		pruned += res.StatesDeduped
	}
	if pruned == 0 {
		t.Fatal("dedup never pruned a state across all seed configs")
	}
}

// TestBacktrackMatchesRecordedReplay: on the algorithms that ran only as
// blocking programs before their frames existed, the backtracking engine
// reports exactly what the replay engine reported on those programs (the
// figures below were recorded from it): the frames explore the same
// schedule tree.
func TestBacktrackMatchesRecordedReplay(t *testing.T) {
	recorded := map[string][3]int{ // Paths, Truncated, MaxDepthReached
		"cas-register-rw":  {12800, 12800, 9},
		"llsc-register-rw": {12800, 12800, 9},
		"leader-blocking":  {39272, 39272, 10},
	}
	for name, want := range recorded {
		cfg := seedConfigs()[name]
		cfg.Engine = EngineBacktrack
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := [3]int{res.Paths, res.Truncated, res.MaxDepthReached}; got != want {
			t.Errorf("%s: paths/truncated/depth %v, recorded replay %v", name, got, want)
		}
	}
}

// TestAutoEngineSelection: EngineAuto picks backtracking+dedup.
func TestAutoEngineSelection(t *testing.T) {
	cfg := seedConfigs()["flag-2proc"]
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineBacktrackDedup {
		t.Fatalf("resumable instance ran on engine %d, want backtracking+dedup", res.Engine)
	}
}

// brokenInstance is a deliberately broken algorithm: Poll claims the
// signal unconditionally. Every engine must find the planted violation.
type brokenInstance struct {
	b memsim.Addr
}

func (in brokenInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, brokenPollFrame{b: in.b}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, brokenSignalFrame{b: in.b}), nil
	default:
		return nil, signal.ErrUnsupported
	}
}

type brokenPollFrame struct {
	b  memsim.Addr
	pc uint8
}

func (f *brokenPollFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccRead(f.b), true
	}
	return memsim.Access{}, false
}

func (f *brokenPollFrame) Return() memsim.Value { return 1 } // broken

type brokenSignalFrame struct {
	b  memsim.Addr
	pc uint8
}

func (f *brokenPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

func (f *brokenSignalFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccWrite(f.b, 1), true
	}
	return memsim.Access{}, false
}

func (f *brokenSignalFrame) Return() memsim.Value { return 0 }

func (f *brokenSignalFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// TestBacktrackDetectsViolation plants the broken resumable algorithm and
// checks that both backtracking engines find the violation.
func TestBacktrackDetectsViolation(t *testing.T) {
	for _, engine := range []Engine{EngineBacktrack, EngineBacktrackDedup} {
		_, err := Run(Config{
			Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
				return brokenInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
			},
			N: 2,
			Scripts: map[memsim.PID][]memsim.CallKind{
				0: {memsim.CallPoll},
				1: {memsim.CallSignal},
			},
			MaxDepth: 6,
			Engine:   engine,
			Check:    specCheck,
		})
		if err == nil {
			t.Fatalf("engine %d should have found the planted violation", engine)
		}
	}
}

// deafPollInstance is a resumable algorithm whose Poll ignores the flag it
// reads and always returns false. Its only spec violations are
// prefix-sensitive: a Poll that BEGAN after a Signal completed must not
// return false, while the byte-identical machine/frame state reached with
// the Poll starting before the Signal's completion is legal. The dedup
// engine must not merge those two pasts.
type deafPollInstance struct {
	b memsim.Addr
}

func (in deafPollInstance) ProgramInto(dst memsim.Resumable, pid memsim.PID, kind memsim.CallKind) (memsim.Resumable, error) {
	switch kind {
	case memsim.CallPoll:
		return memsim.BuildFrame(dst, deafPollFrame{b: in.b}), nil
	case memsim.CallSignal:
		return memsim.BuildFrame(dst, brokenSignalFrame{b: in.b}), nil
	default:
		return nil, signal.ErrUnsupported
	}
}

type deafPollFrame struct {
	b  memsim.Addr
	pc uint8
}

func (f *deafPollFrame) Next(memsim.Result) (memsim.Access, bool) {
	if f.pc == 0 {
		f.pc = 1
		return memsim.AccRead(f.b), true
	}
	return memsim.Access{}, false
}

func (f *deafPollFrame) Return() memsim.Value { return 0 } // deaf: never reports

// TestDedupKeepsPrefixSensitiveViolations: the poll-false rule of
// Specification 4.1 depends on event order, not machine state; the dedup
// key's monitor bits must keep the violating schedule alive. (Before the
// monitor bits existed, the legal "Poll started first" branch was explored
// first and the violating "Signal completed first" branch hashed to the
// same state and was pruned.)
func TestDedupKeepsPrefixSensitiveViolations(t *testing.T) {
	cfg := Config{
		Factory: func(m *memsim.Machine, n int) (memsim.Instance, error) {
			return deafPollInstance{b: m.Alloc(memsim.NoOwner, "B", 1, 0)}, nil
		},
		N: 2,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll},
			1: {memsim.CallSignal},
		},
		MaxDepth: 8,
		Check:    specCheck,
	}
	if _, err := replayRun(cfg); err == nil {
		t.Error("the replay enumeration missed the prefix-sensitive poll-false violation")
	}
	for _, engine := range []Engine{EngineBacktrack, EngineBacktrackDedup} {
		c := cfg
		c.Engine = engine
		if _, err := Run(c); err == nil {
			t.Errorf("engine %d missed the prefix-sensitive poll-false violation", engine)
		}
	}
}

func (f *deafPollFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}

// TestDedupPrunesComposedFrames: algorithms whose frames hold sub-frames
// (the F&I queue's registration/snapshot) must still deduplicate — the
// state key encodes sub-frames by content, not by heap address, so
// re-cloned frames in equal logical states hash equally.
func TestDedupPrunesComposedFrames(t *testing.T) {
	res, err := Run(Config{
		Factory: signal.QueueSignal().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 10,
		Engine:   EngineBacktrackDedup,
		Check:    specCheck,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StatesDeduped == 0 {
		t.Fatal("queue exploration should deduplicate states whose frames hold sub-frames")
	}
	t.Logf("queue: %d paths, %d states deduped", res.Paths, res.StatesDeduped)
}

// TestDeepBoundCapability: a three-waiter, deeper-bound flag configuration
// that is far beyond the replay engine's reach (its work grows with
// paths × depth and each path re-spawns every call) completes quickly on
// the deduplicating backtracking engine.
func TestDeepBoundCapability(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-bound exploration")
	}
	cfg := Config{
		Factory: signal.Flag().New,
		N:       4,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			2: {memsim.CallPoll, memsim.CallPoll, memsim.CallPoll},
			3: {memsim.CallSignal},
		},
		MaxDepth: 16,
		Check:    specCheck,
	}
	start := time.Now()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatesDeduped == 0 {
		t.Fatal("deep exploration should have deduplicated states")
	}
	t.Logf("3 waiters, depth 16: %d paths (%d truncated), %d states deduped, in %v",
		res.Paths, res.Truncated, res.StatesDeduped, time.Since(start))
}
