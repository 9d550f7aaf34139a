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
//
// Both constructors take the storage to reuse, as memsim.Instance's
// ProgramInto does: the pristine section is built in dst when dst is a
// section frame of the same type (built for any process, by any lock of
// the kind), and fresh otherwise (nil included). Frames that run many
// critical sections (a passage restarted per call, the emulated
// primitives of internal/primsim, the GME room) pass their last section
// back, so a warm section allocates nothing.
type Lock interface {
	// AcquireFrame returns the acquire section for pid, built in dst's
	// storage when it can be.
	AcquireFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable
	// ReleaseFrame returns the release section for pid, built in dst's
	// storage when it can be.
	ReleaseFrame(dst memsim.Resumable, pid memsim.PID) memsim.Resumable
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
