// Package harness is the generic streaming workload driver: the one
// scheduler-driven forward drive loop in the repository, shared by the
// signaling histories (core.Run and the termination check, through
// signal.Workload) and every contended workload (mutual exclusion, group
// mutual exclusion, the semi-synchronous timed lock).
//
// A Workload supplies deployment, per-process frame minting and
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
// Every call is a memsim.Resumable frame that the controller advances
// inline, one shared-memory access per step, so a run starts no
// goroutine. Scheduling disciplines beyond free choice, such as the
// semi-synchronous Δ-deadlines, are sched.Scheduler wrappers.
package harness
