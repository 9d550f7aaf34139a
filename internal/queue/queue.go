// Package queue implements the Fetch-And-Increment registration structures
// that Section 7's "many waiters, one signaler, none fixed in advance"
// upper bound builds on. The paper points out that F&I yields O(1)-RMR
// mutual exclusion and hence an RMR-efficient shared queue; the Registry
// here is the specialization the signaling algorithm needs: a grow-only
// set with O(1)-RMR insertion and a consistent snapshot for the signaler.
package queue

import (
	"repro/internal/memsim"
)

// Registry is a grow-only set of values registered by concurrent processes.
// Registration (RegisterResumable) performs exactly two interconnect
// operations (one F&I, one write), so insertion is O(1) RMRs in both the
// CC and DSM models; SnapshotResumable reads the registered values.
type Registry struct {
	tail memsim.Addr
	slot memsim.Addr
	cap  int
}

// NewRegistry allocates a registry with the given capacity on m. Slots are
// global words (remote to everyone in the DSM model).
func NewRegistry(m *memsim.Machine, capacity int, name string) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{
		tail: m.Alloc(memsim.NoOwner, name+".tail", 1, 0),
		slot: m.Alloc(memsim.NoOwner, name+".slot", capacity, memsim.Nil),
		cap:  capacity,
	}
}

// Cap returns the registry's capacity.
func (r *Registry) Cap() int { return r.cap }
