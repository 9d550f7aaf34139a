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
// Deployments are recycled: NewMachine, NewController and NewExecution
// draw their storage from pools that the Release methods fill, so a warm
// deployment allocates only what its factory does. Release never recycles
// a retained trace: a slice Events returned belongs to whoever took it.
//
// # Frames
//
// Every procedure call is a Resumable: an explicit state machine whose
// Next(prev Result) (Access, bool) the controller dispatches inline, one
// shared-memory access per call, with no goroutine and no channel
// operation per step. Call-local state lives in a plain copyable struct
// (a "frame"). An Instance builds its procedures in this form, in storage
// the caller passes (ProgramInto), and larger procedures (lock passages,
// the GME room, the examples) compose by driving sub-frames from their own
// Next.
//
// # Frame discipline
//
// Frames must keep all mutable call-local state in their own fields,
// reference only immutable deployment data (the instance, address tables)
// through pointers, and write slices only append-at-index below a
// frame-held cursor. Under that discipline a shallow struct copy is an
// independent continuation point, so a frame's CloneInto is the one-line
// CopyFrame; frames holding sub-frames or buffers copy those themselves,
// into the destination's storage. A call starts the same way: ProgramInto
// writes the pristine frame whole into the caller's storage (BuildFrame),
// and a frame with sub-frames or buffers sets their storage aside and
// rebuilds them in place, so no start mints a frame the storage already
// holds and none reads what the storage held. Storage of another type is
// not dropped: CloneTarget sets it aside in its type's pool, whence a
// later start or copy of that type takes it. AppendFrameState can then
// encode a frame's canonical state by content — identically across different
// executions, which the engines' shared dedup and memo tables rely on.
// Frames whose state the field walk cannot see (per-call allocations,
// cursor-written slices) implement StateAppender. internal/signal's
// TestFrameStateIsBehavioural and TestFrameCopyDifferential check both
// properties on every frame the algorithms mint.
package memsim
