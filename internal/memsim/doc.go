// Package memsim implements a deterministic simulator of an asynchronous
// shared-memory multiprocessor, the execution substrate for reproducing
// Golab's CC/DSM complexity separation (PODC 2011, arXiv:1109.5153).
//
// The simulator follows Section 2 of the paper: up to N asynchronous
// processes communicate through atomic operations on shared memory words.
// Memory is partitioned into per-process modules (the DSM view); the same
// execution can be scored under cache-coherent cost models after the fact.
//
// # Layers
//
// Machine is the purely sequential bottom layer: a growable array of words
// with module ownership, per-process LL/SC reservations, and one atomic
// operation applied at a time (Apply). ApplyLogged additionally returns an
// Undo record; reverting records in reverse order restores the machine
// bit-for-bit, which is what lets the backtracking explorer
// (internal/explore) retract a step instead of replaying a prefix.
//
// Controller layers asynchronous processes on top of a machine: it parks
// each process at its next shared-memory access, exposes the pending
// access for inspection, and applies one access per Step in whatever order
// the caller (a scheduler, an adversary, an exhaustive explorer) decides.
// Every step emits an Event; EventSink implementations observe the stream,
// and retention of the full trace is opt-in (RetainEvents).
//
// Execution binds machine + controller + a deployed algorithm Instance and
// keeps the replayable action log. Because instances are required to be
// deterministic (including their allocation order), replaying a recorded
// action sequence on a fresh Execution reproduces the trace exactly — the
// capability the paper's erasing/rolling-forward proof strategy requires,
// and the explorer's reference enumeration.
//
// # The two program tiers
//
// Procedures run in one of two representations:
//
//   - Resumable: an explicit state machine, Resumable, whose
//     Next(prev Result) (Access, bool) the controller dispatches inline —
//     zero goroutines and zero channel operations per step, ~5–11× faster
//     (BenchmarkEngineStep/mcs). Call-local state lives in a plain
//     copyable struct (a "frame"). An Instance provides its procedures in
//     this form only, and Execution runs every call this way.
//   - Blocking: an ordinary Go function, Program func(*Proc) Value, for
//     code that composes calls over Proc (lock sections, the examples).
//     Every shared-memory access suspends its goroutine until the
//     controller grants it (two channel handshakes per step).
//     WorkerPool.FromBlocking runs these on pooled, reusable handoff
//     goroutines, and Blocking adapts a frame into such a program.
//
// Both produce byte-identical traces for identical schedules, pinned by
// equivalence tests for every algorithm and lock in this repository.
//
// # Frame discipline
//
// Frames must keep all mutable call-local state in their own fields,
// reference only immutable deployment data (the instance, address tables)
// through pointers, and write slices only append-at-index below a
// frame-held cursor. Under that discipline CloneResumable's shallow copy
// is an independent continuation point (frames holding sub-frames
// implement ResumableCloner instead), and EncodeFrameState can render a
// frame's canonical state by content — identically across different
// executions, which the parallel explorer's shared dedup table relies on.
// Frames whose state the canonical walk cannot see (per-call allocations,
// cursor-written slices) implement StateEncoder.
package memsim
