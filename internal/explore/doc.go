// Package explore enumerates every interleaving of a small simulated
// workload up to a depth bound and checks a property on each complete
// history — bounded model checking for the algorithms in this repository.
// Randomized schedules (internal/sched) probe large configurations; explore
// proves exhaustiveness for small ones (two to five processes, a handful
// of calls), which is where the interesting races of Section 7 live (e.g.
// "waiters register while the signaler is calling Signal()").
//
// Two scheduling decisions are explored: which pending shared-memory access
// to apply next, and when each process begins its next procedure call.
// Call-start times matter because Specification 4.1 is stated in terms of
// call boundaries ("some call to Signal() has already begun"). Completed
// calls are collected eagerly, so a call's end event carries the earliest
// sequence number consistent with its last step.
//
// Following the problem statement ("a process may call Poll() arbitrarily
// many times until such a call returns true"), a process abandons the rest
// of its script once a Poll call returns true.
//
// # Engines
//
// Two engines enumerate the schedule tree. The backtracking engine (the
// default for algorithms with a resumable tier) runs on the node-expansion
// core it shares with internal/search (internal/engine), which keeps one
// execution alive per worker: process state lives in copyable resumable
// frames (a memsim.FrameSet copies them into each tree node's snapshot,
// recycling frame storage across calls and snapshots) and shared memory
// reverts through the machine's undo log (memsim.Machine.ApplyLogged and
// Revert), so moving between adjacent paths retracts a step instead of
// replaying the whole prefix. The explorer's part is a policy on that
// core: the event log, call numbers and Specification 4.1 monitor bits. The replay engine re-runs the shared prefix
// for every path (total work ≈ paths × depth) and drives blocking programs
// on goroutines; it remains both the fallback for algorithms without
// resumable forms and the reference enumeration the backtracking engine is
// equivalence-tested against.
//
// # State deduplication
//
// With dedup enabled (the default), each tree node is named by a canonical
// 128-bit hash of everything that determines its future: machine word
// values, will-succeed LL reservations (memsim.Machine.LLState), each
// scripted process's frame (encoded by content through
// memsim.AppendKeyFrameState — heap addresses never enter the key), pending
// access, call count and script position, plus the Specification 4.1
// monitor bits (whether a Signal has begun/completed, and whether each
// open call began after the first completed Signal — so two states with
// different spec-relevant pasts never merge). Each (state hash, remaining
// depth budget) pair is claimed exactly once for the whole exploration;
// later arrivals prune their subtree. Because a claim names the pair and
// not the path that reached it, the explored set is exactly the set of
// distinct (state, budget) pairs reachable from the root — a function of
// the configuration alone — which makes every Result counter
// deterministic: identical Paths, Truncated, StatesDeduped and
// MaxDepthReached for any Workers value and any run.
//
// Pruning is sound for properties that are a function of the canonical
// state plus the continuation (CheckSpec is, via the monitor bits); a
// Check that conditions on other prefix details should use EngineBacktrack
// or EngineReplay, which visit every history.
//
// # Parallel sharding
//
// The backtracking engines shard the schedule tree across Config.Workers
// workers (default: one per core). Any node is reachable from the root by
// its choice-index sequence alone, so a subtree hands off between workers
// as a bare index prefix. Each worker owns a private execution — machine,
// instance, frame snapshots, undo log — and a deque of subtree prefixes:
// it pushes and pops at the bottom (keeping its own work depth-first) and
// steals from the top of other deques (taking the shallowest, largest
// subtrees). Workers split their current node into stealable prefixes only
// while the global frontier is starving; once every worker is saturated
// they recurse privately with zero coordination. The only shared mutable
// state is the striped claim table and the stop flag, which is why the
// search scales with cores and runs clean under the race detector.
package explore
