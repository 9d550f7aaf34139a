package trace

import (
	"reflect"
	"testing"

	"repro/internal/memsim"
)

// The queries below read a Relations one pair or one address at a time.
// Only the tests ask such questions; the adversary's audit reads the
// relations whole through CheckRegular.

// compute returns the relations of a history in a new Relations.
func compute(events []memsim.Event, owner OwnerFunc, n int) *Relations {
	r := new(Relations)
	r.Compute(events, owner, n)
	return r
}

func (r *Relations) has(rel []uint64, p, q memsim.PID) bool {
	if p < 0 || int(p) >= r.n || q < 0 || int(q) >= r.n {
		return false
	}
	return rel[int(p)*r.words+int(q)/64]&(1<<(uint(q)%64)) != 0
}

// Sees reports whether p read a value last written by q (Def. 6.4).
func (r *Relations) Sees(p, q memsim.PID) bool { return r.has(r.sees, p, q) }

// Touches reports whether p accessed a word in q's module (Def. 6.5).
func (r *Relations) Touches(p, q memsim.PID) bool { return r.has(r.touches, p, q) }

// Participant reports whether p took at least one step.
func (r *Relations) Participant(p memsim.PID) bool {
	return p >= 0 && int(p) < r.n && r.participants[p]
}

// LastWriter returns the process whose nontrivial operation wrote a last,
// and false if no process wrote it.
func (r *Relations) LastWriter(a memsim.Addr) (memsim.PID, bool) {
	if a < 0 || int(a) >= len(r.lastWriter) || r.lastWriter[a] == memsim.NoOwner {
		return memsim.NoOwner, false
	}
	return r.lastWriter[a], true
}

// MultiWriter reports whether two or more processes overwrote a.
func (r *Relations) MultiWriter(a memsim.Addr) bool {
	return a >= 0 && int(a) < len(r.multiWriter) && r.multiWriter[a]
}

// StepsByProcess returns the number of shared-memory accesses each process
// performed.
func StepsByProcess(events []memsim.Event, n int) []int {
	steps := make([]int, n)
	for _, ev := range events {
		if ev.Kind == memsim.EvAccess && int(ev.PID) < n {
			steps[ev.PID]++
		}
	}
	return steps
}

// TestComputeReusesRelations: a Relations that held a larger history
// holds, after Compute, exactly what a new Relations computes from the
// smaller one (no relation, participant or writer left over), and a
// Compute that fits its storage allocates nothing.
func TestComputeReusesRelations(t *testing.T) {
	owner := ownerFixed(map[memsim.Addr]memsim.PID{0: 0, 1: 1, 2: 2, 70: 69})
	large := []memsim.Event{
		access(0, memsim.OpWrite, 1, true),
		access(1, memsim.OpWrite, 1, true), // a1 has two writers
		access(2, memsim.OpRead, 1, false), // p2 sees p1, touches p1
		access(69, memsim.OpCAS, 0, true),  // p69 touches p0
		access(3, memsim.OpRead, 70, false),
	}
	small := []memsim.Event{
		access(1, memsim.OpWrite, 0, true),
		access(2, memsim.OpRead, 0, false),
	}
	r := compute(large, owner, 70)
	r.Compute(small, owner, 3)
	if want := compute(small, owner, 3); !reflect.DeepEqual(r, want) {
		t.Fatalf("recycled relations %+v, fresh %+v", r, want)
	}
	if r.Touches(2, 1) || r.MultiWriter(1) || r.Participant(0) || !r.Sees(2, 1) {
		t.Fatal("the recycled relations kept the larger history")
	}
	if allocs := testing.AllocsPerRun(10, func() { r.Compute(large, owner, 70) }); allocs != 0 {
		t.Fatalf("a Compute into large enough storage allocated %v times", allocs)
	}
}
