// Package signal specifies the paper's signaling problem (Section 4) and
// implements every solution the paper states or sketches: the O(1)-RMR
// cache-coherent flag algorithm of Section 5 and the DSM-oriented
// algorithms of Section 7 (single-waiter, fixed-waiters and its
// terminating refinement, registered-waiters, the F&I queue, CAS and
// LL/SC registration, the multi-signaler variant), plus the read/write
// emulations the lower-bound adversary defeats. Blockified, which derives
// Wait from Poll, is a test oracle: it lives in the package's tests, where
// the frame golden and the frame, reset and template suites run it.
//
// Algorithms are catalogued as Algorithm values (name, problem Variant,
// deployment factory); All enumerates them and ByName resolves CLI names.
// Each algorithm exists once, as frames: its instance's ProgramInto
// builds memsim.Resumable frames in the caller's storage, the one program
// form every engine runs, and the frames' doc comments carry the paper's
// pseudocode. Frames shared
// by several algorithms live in resumable.go; the read/write
// transformations compose primsim's emulated CAS and LL/SC frames, and
// leader-blocking composes election's. Callers that compose calls (the
// resourcepool example) drive these frames from their own.
// framegolden_test.go pins every algorithm's traces and final memory on
// seeded schedules with faults.
//
// Workload runs an algorithm under a call Policy on the generic streaming
// harness (internal/harness); core.Run and the termination check in
// internal/progress drive every signaling history through it.
//
// CheckSpec verifies Specification 4.1 on a complete trace; SpecChecker
// verifies it online, event by event, and is what core.Run attaches. The specification's interesting clause is
// prefix-sensitive: a Poll that began after some Signal completed must not
// return false — the reason the explorer's state-dedup key carries
// spec-monitor bits (see internal/explore).
//
// Conventions. Processes are numbered 0..N-1. Algorithms whose problem
// variant fixes the signaler in advance use process N-1 as the designated
// signaler. Booleans are encoded as 0 (false) and 1 (true).
package signal
