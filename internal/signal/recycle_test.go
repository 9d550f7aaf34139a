package signal

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/memsim"
	"repro/internal/mutex"
	"repro/internal/primsim"
)

// deployment is one way of laying out shared state on a machine: a
// signaling algorithm, a lock, or a primitive emulation.
type deployment struct {
	name   string
	deploy func(m *memsim.Machine, n int) error
}

// recycleDeployments is every deployment TestRecycledMachineMatchesFresh
// lays out: each signal.All() algorithm, each mutex.All() lock and both
// primsim emulations.
func recycleDeployments() []deployment {
	var ds []deployment
	for _, a := range All() {
		ds = append(ds, deployment{"signal/" + a.Name, func(m *memsim.Machine, n int) error {
			_, err := a.New(m, n)
			return err
		}})
	}
	for _, l := range mutex.All() {
		ds = append(ds, deployment{"mutex/" + l.Name, func(m *memsim.Machine, n int) error {
			_, err := l.New(m, n)
			return err
		}})
	}
	return append(ds,
		deployment{"primsim/cas-array", func(m *memsim.Machine, n int) error {
			_, err := primsim.NewEmuCASArray(m, n, 4, "Q", memsim.Nil)
			return err
		}},
		deployment{"primsim/llsc", func(m *memsim.Machine, n int) error {
			_, err := primsim.NewEmuLLSC(m, n, "X", 0)
			return err
		}},
	)
}

// machineView is everything a deployment's machine shows: its size, the
// owner and name of every address (a few beyond the allocated space
// included) and its key-state bytes.
type machineView struct {
	n      int
	size   int
	owners []memsim.PID
	names  []string
	key    []byte
}

func viewOf(m *memsim.Machine) machineView {
	v := machineView{n: m.N(), size: m.Size(), key: m.AppendKeyState(nil)}
	for a := memsim.Addr(-2); int(a) < m.Size()+2; a++ {
		v.owners = append(v.owners, m.Owner(a))
		v.names = append(v.names, m.Name(a))
	}
	return v
}

// dirty leaves state in every field a recycled machine keeps: each
// process holds an LL reservation on a never-written word, then every
// word is overwritten (so the reservations' versions are stale here but
// would be current on a fresh word).
func dirty(m *memsim.Machine) {
	for p := 0; p < m.N(); p++ {
		m.Apply(memsim.PID(p), memsim.Access{Op: memsim.OpLL, Addr: memsim.Addr(p % m.Size())})
	}
	for a := 0; a < m.Size(); a++ {
		m.Apply(memsim.PID(a%m.N()), memsim.AccWrite(memsim.Addr(a), memsim.Value(a+7)))
	}
}

// donor builds, runs and releases a machine for n processes holding a pad
// array and then every deployment's state (one allocation of each, laid
// out back to back) and returns it, so that the next NewMachine may hand
// its storage out again. The pad makes the donor's layout differ from
// every deployment's from address 0 on.
func donor(t *testing.T, n int) *memsim.Machine {
	t.Helper()
	m := memsim.NewMachine(n)
	m.Alloc(memsim.NoOwner, "pad", 3, 1)
	for _, d := range recycleDeployments() {
		_ = d.deploy(m, n) // a deployment refusing n leaves what it allocated
	}
	dirty(m)
	m.Release()
	return m
}

// recycledMachine returns a NewMachine(n) whose storage is that of a
// released machine built for donorN processes. The pool may drop a
// released item, so it retries until the donor comes back.
func recycledMachine(t *testing.T, n, donorN int) *memsim.Machine {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		d := donor(t, donorN)
		m := memsim.NewMachine(n)
		if m == d {
			return m
		}
		m.Release()
	}
	t.Fatalf("NewMachine(%d) never reused a released machine", n)
	return nil
}

// freshMachine returns a NewMachine(n) that recycles nothing: two
// collections empty the machine pool first. The caller drops it rather
// than releasing it, so that only donors are ever recycled.
func freshMachine(n int) *memsim.Machine {
	runtime.GC()
	runtime.GC()
	return memsim.NewMachine(n)
}

// TestRecycledMachineMatchesFresh deploys every algorithm, lock and
// primitive emulation on a fresh machine and on machines recycled from a
// larger and from a smaller deployment (each run and dirtied before its
// release): sizes, owners, names and key-state bytes must all agree, so
// nothing of a released machine shows through its reuse.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range recycleDeployments() {
		for _, n := range []int{2, 5, 16} {
			fresh := freshMachine(n)
			freshErr := d.deploy(fresh, n)
			want := viewOf(fresh)
			for _, name := range want.names {
				seen[name] = true
			}
			for _, donorN := range []int{n + 11, 1} {
				m := recycledMachine(t, n, donorN)
				err := d.deploy(m, n)
				got := viewOf(m)
				m.Release()
				what := fmt.Sprintf("%s n=%d recycled from a %d-process deployment", d.name, n, donorN)
				if (err == nil) != (freshErr == nil) {
					t.Fatalf("%s: deploy error %v, fresh machine %v", what, err, freshErr)
				}
				if got.n != want.n || got.size != want.size {
					t.Fatalf("%s: N %d Size %d, fresh N %d Size %d", what, got.n, got.size, want.n, want.size)
				}
				for i := range want.owners {
					a := i - 2
					if got.owners[i] != want.owners[i] {
						t.Fatalf("%s: Owner(%d) = %d, fresh %d", what, a, got.owners[i], want.owners[i])
					}
					if got.names[i] != want.names[i] {
						t.Fatalf("%s: Name(%d) = %q, fresh %q", what, a, got.names[i], want.names[i])
					}
				}
				if !bytes.Equal(got.key, want.key) {
					t.Fatalf("%s: key state\n%x\nfresh\n%x", what, got.key, want.key)
				}
			}
		}
	}
	// The names compared include array elements and the out-of-range form.
	for _, name := range []string{"Q[3]", "a-1", "a-2"} {
		if !seen[name] {
			t.Errorf("no deployment showed the name %q", name)
		}
	}
}

// TestDeployReleaseAllocs checks that a warm deployment allocates nothing
// in memsim: a Deploy and Release of FixedWaiters at n=64 allocates exactly
// what the factory itself allocates (its instance), and nothing for the
// machine, the controller or the execution.
func TestDeployReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const n = 64
	alg := FixedWaiters()
	var factoryAllocs uint64
	counted := alg
	counted.New = func(m *memsim.Machine, n int) (memsim.Instance, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inst, err := alg.New(m, n)
		runtime.ReadMemStats(&after)
		factoryAllocs += after.Mallocs - before.Mallocs
		return inst, err
	}
	deploy := func() {
		e, err := counted.Deploy(n)
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	deploy() // warm the pools
	const runs = 50
	factoryAllocs = 0
	total := testing.AllocsPerRun(runs, deploy)
	// AllocsPerRun makes one more, unmeasured, warm-up call.
	factory := float64(factoryAllocs / (runs + 1))
	if factory == 0 {
		t.Fatal("the factory allocated nothing: the measurement is broken")
	}
	t.Logf("a warm Deploy+Release allocates %.0f times, the factory %.0f", total, factory)
	if total > factory {
		t.Fatalf("a warm Deploy+Release allocates %.0f times, the factory alone %.0f: memsim adds %.0f",
			total, factory, total-factory)
	}
}
