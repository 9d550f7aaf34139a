// Package search synthesizes worst-case-cost schedules: given an
// algorithm, a workload script and a cost model, it finds the
// interleaving that maximizes the model's RMR bill — the executable form
// of the paper's worst-case complexity claims, where internal/explore
// answers "does the specification hold on every schedule" and
// internal/lowerbound replays one hand-built adversary.
//
// Two modes share one Config/Result surface. Exhaustive mode is a
// branch-and-bound depth-first search over a single live resumable
// execution, on the node-expansion core it shares with internal/explore
// (internal/engine): frames live in a memsim.FrameSet whose storage is
// recycled across calls and snapshots, shared memory rewinds through the
// machine's undo log, and the search's policy on the core — a per-path
// cost accumulator (model.ForkableAccumulator) — is forked at every tree
// node so the pricing state backtracks with the schedule. The striped
// claim table of internal/engine, keyed by canonical (machine state,
// model state, remaining depth budget), serves as the memo and stores
// each subtree's exact maximal tail cost, and nothing else; every later
// arrival at the pair — whatever cost its prefix accumulated — is cut
// and reuses the stored cost. The witness is rebuilt afterwards by one
// descent from the root that takes, at each node, the lowest-index child
// whose step cost plus memo cost equals the remaining cost: unreduced,
// the lexicographically least worst-case schedule. Work-stealing
// workers on the explorer's prefix-handoff pattern share the table, and
// every Result field is deterministic for any worker count. Sample mode
// runs N independent seeded random walks for configurations beyond
// exhaustive reach and reports max, mean and quantiles, with the seed in
// the Result so every number reproduces.
//
// The worker pool, the counters and their telemetry flush, and the
// checkpoint unit loop come from internal/engine as well; this package
// keeps the branch-and-bound DFS, the spine pass that finishes a
// checkpointed or sharded run, and the witness descent.
//
// Replay re-executes a witness (a choice-index sequence) on a fresh
// memsim.Execution and re-prices it through the streaming accumulator — an
// independent code path that the property tests use to certify that the
// reported worst cost is exactly realizable.
package search
