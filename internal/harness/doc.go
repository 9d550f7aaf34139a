// Package harness is the generic streaming workload driver: the one
// scheduler-driven forward drive loop in the repository, shared by the
// signaling histories (core.Run and the termination check, through
// signal.Workload) and every contended workload (mutual exclusion, group
// mutual exclusion, the semi-synchronous timed lock).
//
// A Workload supplies deployment, per-process program minting and
// completion accounting; the harness owns everything else — scheduling,
// the step budget, interruption, and the streaming measurement pipeline.
// Attached model.Scorer accumulators price every shared-memory event in a
// single pass, optional memsim.EventSink hooks observe the stream, and the
// trace itself is retained only on request (Config.KeepEvents), so
// scoring-only runs keep O(1) events however long the execution. Budget
// and interrupt stops return the ErrBudget and ErrInterrupted sentinels
// with a valid truncated Result, and the harness harvests completions once
// more after the drive loop exits so a call completing on the final
// budgeted or interrupting step is always counted.
//
// Workloads that also implement SteppedWorkload receive a callback after
// every applied step — the hook the semi-synchronous runner uses to
// enforce Δ-deadlines — and those that implement ResumableWorkload start
// their calls on the goroutine-free resumable engine tier (see
// internal/memsim), falling back to blocking programs otherwise.
// Config.ForceBlocking pins the blocking tier for A/B comparisons (the
// lock runner exposes it).
package harness
