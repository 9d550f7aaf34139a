// Package mutex implements the mutual-exclusion substrate the paper's
// related-work positioning (Section 3) builds on, and that the Section 7
// queue-based signaling solution presupposes: spin locks spanning the
// known RMR-complexity landscape.
//
//   - test-and-set and test-and-test-and-set locks: unbounded RMRs in both
//     models under contention;
//   - ticket lock (Fetch-And-Increment): bounded fairness but remote
//     spinning, so O(contenders) RMRs per passage;
//   - Anderson's array lock: O(1) RMRs per passage in the CC model, remote
//     spinning in DSM;
//   - MCS queue lock: O(1) RMRs per passage in both CC and DSM (each
//     process spins on a flag in its own memory module);
//   - Peterson tournament lock: reads/writes only, Θ(log N) RMRs per
//     passage in the CC model (the read/write bound of [30, 22, 10, 5]);
//   - bakery lock: the classic reads/writes-only doorway algorithm.
//
// A lock's acquire and release sections are resumable frames
// (memsim.Resumable) that compose into larger frames: a passage drives
// them around its critical section, and the GME room, the primitive
// emulations and the examples drive them the same way. CSProbe is the
// shared critical-section passage probe (lost-update detection,
// completion accounting) embedded by this package's Workload, which the
// semi-synchronous workload reuses over Fischer's lock.
//
// Run drives a contended passage workload on the generic harness
// (internal/harness) and applies its config exactly as given: attached
// Scorers price the run in a single pass with O(1) retained events, and
// only KeepEvents retains the trace for an after-the-fact Score.
package mutex
