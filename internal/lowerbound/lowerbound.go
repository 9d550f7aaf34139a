// Package lowerbound implements the paper's Section 6 lower bound as an
// executable adversary. Theorem 6.2 states that no deterministic
// terminating algorithm solving the signaling problem (one signaler, many
// waiters not fixed in advance, polling semantics) with reads, writes, CAS
// or LL/SC achieves O(1) amortized RMR complexity in the DSM model.
//
// A lower bound quantifies over all algorithms, so the runnable artifact is
// the proof's *strategy*: given any concrete algorithm expressed against
// the simulator and any constant c, the adversary constructs a history in
// which the participating processes incur more than c times as many DSM
// RMRs as there are participants — or, failing that, exhibits a safety or
// termination violation, which is the other horn of the proof's dichotomy.
// Algorithms using primitives stronger than the theorem covers (e.g.
// Fetch-And-Increment) legitimately evade the adversary; the Evaded verdict
// documents that, mirroring Section 7's queue-based upper bound.
//
// The construction follows the paper closely:
//
//   - Part 1 (Kim–Anderson style rounds): all N processes poll; each round,
//     unstable processes are run to their next RMR, conflicts that would
//     break regularity (Definition 6.6) are resolved by erasing an
//     independent set complement of a conflict graph (Turán's theorem), and
//     same-variable write pile-ups are resolved by rolling one process
//     forward. Erasure is literal: the adversary rewinds its one
//     deployment of the algorithm to the initial state (memsim
//     Execution.Reset) and replays the schedule onto it without the
//     erased processes' actions, asserting that the survivors' traces are
//     unchanged (Lemma 6.7); the replay is the new live history.
//   - Stability (Definition 6.8) is certified constructively: a Poll call
//     that performs no remote access and leaves the process's memory module
//     exactly as it found it is a local fixpoint, so the process will never
//     incur another RMR running solo.
//   - Part 2 (the "wild goose chase", Lemma 6.13): a process s whose module
//     was never written and who never participated runs Signal() solo; each
//     time s is about to see or touch a stable active waiter, the adversary
//     erases that waiter just before the step. Either s pays one RMR per
//     stable waiter, or some untouched stable waiter's next Poll() returns
//     false after Signal() completed — a violation of Specification 4.1.
//
// The construction reads only running quantities of its history, never
// the history itself: per-process DSM RMRs, who participated, whether the
// current call went remote, and whose module was written. The execution
// keeps them in a ledger attached as a memsim.EventSink, and by default
// retains no trace; it keeps only the action log that erasure and replay
// need. The rest of the adversary's bookkeeping — the active, finished
// and stable sets, the round's pending accesses, the conflict graph, the
// per-variable writer counts — is dense PID- or address-indexed storage
// drawn from a pool, with the builder that holds it, and the active set
// is a list kept in ascending PID order, so no round builds a map or
// sorts. The certificate's trace is made once, at the end, by replaying
// the final action log while the ledger collects the events into a slice
// of exactly the log's length (every action emits one event); the
// regularity audit (internal/trace) runs on it in relations the builder
// keeps. The trace, owners and rounds are the certificate's own until
// Certificate.Release hands them to a later certificate, so a warm run
// whose caller releases its certificate allocates little more than the
// certificate's header. Config.VerifyErasures additionally makes the
// execution retain its trace, so that every erasure can compare the
// survivors' accesses and the certificate's replayed trace can be
// compared with the live one.
package lowerbound

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/memsim"
	"repro/internal/signal"
)

// Verdict classifies the adversary's outcome.
type Verdict uint8

// Adversary verdicts.
const (
	// VerdictExceeded means the adversary built a history whose total DSM
	// RMRs exceed c times the number of participants — the theorem's
	// conclusion for this algorithm and c.
	VerdictExceeded Verdict = iota + 1
	// VerdictSafety means the adversary drove the algorithm into a
	// violation of Specification 4.1 instead (the algorithm is incorrect
	// for this problem variant).
	VerdictSafety
	// VerdictNonTerminating means a solo procedure call failed to finish
	// within the step budget (the algorithm is not terminating for this
	// variant).
	VerdictNonTerminating
	// VerdictEvaded means the adversary could not push the algorithm over
	// c·k; expected for algorithms using primitives outside the
	// theorem's scope (e.g. Fetch-And-Increment) or solving a restricted
	// variant.
	VerdictEvaded
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictExceeded:
		return "exceeded"
	case VerdictSafety:
		return "safety-violation"
	case VerdictNonTerminating:
		return "non-terminating"
	case VerdictEvaded:
		return "evaded"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Config parameterizes the adversary.
type Config struct {
	// Algorithm is the candidate solution under attack.
	Algorithm signal.Algorithm
	// N is the number of processes the construction starts with; the
	// theorem needs N large relative to c.
	N int
	// C is the amortized-RMR constant to refute.
	C int
	// Rounds overrides the number of Part 1 rounds (default C+1). A
	// negative value skips Part 1 entirely, yielding the *simplified*
	// lower bound of Section 7 ("terminating solutions with polling
	// semantics ... the signaler must perform Ω(W) RMRs if all W waiters
	// participate"): waiters run straight to stability and the goose
	// chase begins.
	Rounds int
	// SoloBudget bounds the steps of any solo procedure call (default
	// 64·N + 256); exceeding it yields VerdictNonTerminating.
	SoloBudget int
	// RollThreshold overrides the ⌊√X⌋ same-variable writer threshold of
	// the roll-forward case (0 keeps the paper's value). Exposed for the
	// ablation benchmark BenchmarkAblationRollForward in the root
	// bench_test.go.
	RollThreshold int
	// VerifyErasures replays and compares survivor traces after every
	// erasure (Lemma 6.7 as a runtime assertion), and checks that the
	// certificate's replayed trace equals the live one. With it set, the
	// execution retains its whole trace; without it, it retains none, and
	// only the certificate's replay records one. The certificate is the
	// same either way. Slower; on by default in tests.
	VerifyErasures bool
	// Log receives a human-readable construction narrative. With it nil,
	// nothing is formatted.
	Log io.Writer
}

// RoundReport records one Part 1 round.
type RoundReport struct {
	Round    int
	Active   int // active processes after the round
	Stable   int // of which certified stable
	Erased   int // erased during the round
	Finished int // total finished so far
	Case     string
}

// Certificate is the adversary's evidence.
type Certificate struct {
	// Verdict classifies the outcome.
	Verdict Verdict
	// C is the constant attacked.
	C int
	// K is the number of processes participating in the final history.
	K int
	// TotalRMRs is the total DSM RMRs incurred in the final history.
	TotalRMRs int
	// SignalerPID and SignalerRMRs describe the Part 2 goose chase (-1/0
	// when the construction ended in Part 1).
	SignalerPID  memsim.PID
	SignalerRMRs int
	// StableWaiters counts the stable processes available to Part 2.
	StableWaiters int
	// Rounds narrates Part 1.
	Rounds []RoundReport
	// Detail explains safety/termination/evasion outcomes.
	Detail string
	// Regular reports whether the final history satisfies the regularity
	// conditions of Definition 6.6 (checked with internal/trace); the
	// construction maintains regularity as an invariant, so this is a
	// self-audit.
	Regular bool
	// Events is the final history's trace.
	Events []memsim.Event
	// Processes is the machine size the history ran on (the construction's
	// starting N), and Owners the machine's module-ownership mapping in
	// address order — together with Events, everything needed to re-price
	// the history under any cost model.
	Processes int
	Owners    []memsim.PID

	// store backs Events, Owners and Rounds until Release.
	store *certStore
}

// certStore is the reusable backing of a certificate's Events, Owners and
// Rounds. Its slices are kept at length zero and full capacity, so that
// certificates compare (reflect.DeepEqual) by what they hold, not by what
// their storage held before.
type certStore struct {
	events []memsim.Event
	owners []memsim.PID
	rounds []RoundReport
}

// certStorePool hands released certificate storage to later certificates.
var certStorePool = sync.Pool{New: func() any { return new(certStore) }}

// Release hands the certificate's Events, Owners and Rounds to a later
// certificate for reuse and sets the three fields to nil; the others stay
// readable. A caller that reads only the counts releases the certificate
// once it has read them. A caller that keeps the certificate never calls
// Release: its storage is then shared with nothing. After Release,
// nothing taken from the three fields may be used. A second Release does
// nothing.
func (c *Certificate) Release() {
	if c.store == nil {
		return
	}
	certStorePool.Put(c.store)
	c.store, c.Events, c.Owners, c.Rounds = nil, nil, nil, nil
}

// OwnerFunc returns the history's module-ownership mapping in the form
// the cost models consume (addresses beyond the recorded space are
// global, i.e. NoOwner).
func (c *Certificate) OwnerFunc() func(memsim.Addr) memsim.PID {
	return func(a memsim.Addr) memsim.PID {
		if int(a) < 0 || int(a) >= len(c.Owners) {
			return memsim.NoOwner
		}
		return c.Owners[int(a)]
	}
}

// Exceeded reports whether the certificate witnesses TotalRMRs > C·K.
func (c *Certificate) Exceeded() bool {
	return c.TotalRMRs > c.C*c.K
}

// Run executes the adversary and returns its certificate.
func Run(cfg Config) (*Certificate, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	defer b.release()
	return b.run()
}
