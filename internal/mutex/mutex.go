package mutex

import (
	"fmt"

	"repro/internal/memsim"
)

// Lock is a deployed mutual-exclusion instance. Its acquire and release
// sections are resumable frames that a larger frame drives inside one
// procedure call: the acquire section busy-waits (in simulated steps)
// until the calling process holds the lock, and the release section
// relinquishes it.
type Lock interface {
	// AcquireFrame returns the acquire section for pid.
	AcquireFrame(pid memsim.PID) memsim.Resumable
	// ReleaseFrame returns the release section for pid.
	ReleaseFrame(pid memsim.PID) memsim.Resumable
}

// SectionRestarter is a Lock whose section frames restart in place:
// Restart turns f, a section frame of this lock's kind (minted for any
// process, by any lock of the kind), into pid's fresh acquire section
// (acquire) or release section of this lock, without allocating. It
// reports false when f is of another kind. Frames that run many critical
// sections (the primitive emulations of internal/primsim) keep one frame
// per section this way.
type SectionRestarter interface {
	Lock
	Restart(f memsim.Resumable, pid memsim.PID, acquire bool) bool
}

// Algorithm is a named lock construction.
type Algorithm struct {
	// Name identifies the lock in reports.
	Name string
	// Primitives documents the required synchronization primitives.
	Primitives string
	// Comment summarizes the known RMR complexity per passage.
	Comment string
	// New deploys a fresh lock for n processes on m.
	New func(m *memsim.Machine, n int) (Lock, error)
}

// All returns every lock in the repository.
func All() []Algorithm {
	return []Algorithm{
		TAS(),
		TTAS(),
		Ticket(),
		Anderson(),
		MCS(),
		PetersonTournament(),
		Bakery(),
	}
}

// ByName returns the lock algorithm with the given name.
func ByName(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("mutex: unknown lock %q", name)
}
