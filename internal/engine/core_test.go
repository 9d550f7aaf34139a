package engine

import (
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/memsim"
	"repro/internal/signal"
	"repro/internal/worksteal"
)

// nopPolicy folds nothing: the core alone decides the walk.
type nopPolicy struct{}

func (nopPolicy) Started(memsim.PID, memsim.CallKind)                                 {}
func (nopPolicy) Accessed(memsim.PID, memsim.Access, memsim.Result, memsim.FaultKind) {}
func (nopPolicy) Ended(memsim.PID)                                                    {}
func (nopPolicy) Crashed(memsim.PID)                                                  {}
func (nopPolicy) SaveState(any) any                                                   { return nil }
func (nopPolicy) RestoreState(any)                                                    {}
func (nopPolicy) AppendKeyHead(b []byte) []byte                                       { return b }
func (nopPolicy) AppendKeyProc(b []byte, _ memsim.PID) []byte                         { return b }
func (nopPolicy) AppendKeyTail(b []byte) []byte                                       { return b }
func (nopPolicy) StartCommutes(u, c Choice) bool                                      { return true }

// leafWalk is what a walk of the whole tree reached: its leaves and the
// XOR of their state keys, which any worker split of the tree leaves
// unchanged.
type leafWalk struct {
	leaves int
	keys   [16]byte
}

// dfs walks the subtree at w's position down to depth bound, handing
// siblings off while the frontier starves.
func (l *leafWalk) dfs(w *Worker, depth, bound int) error {
	if err := w.Enter(depth); err != nil {
		return err
	}
	e := w.Core
	choices := e.SettleAt(depth)
	if len(choices) == 0 || depth == bound {
		l.leaves++
		k := e.StateKey()
		for i := range k {
			l.keys[i] ^= k[i]
		}
		return nil
	}
	split := w.Split(len(choices), bound-depth)
	m := e.Save()
	for i, c := range choices {
		if split && i > 0 {
			w.Handoff(i)
			continue
		}
		if err := e.Apply(c, i); err != nil {
			return err
		}
		if err := l.dfs(w, depth+1, bound); err != nil {
			return err
		}
		e.Restore(m)
	}
	e.Release(m)
	return nil
}

// TestConcurrentWorkersOwnTheirCores: multi-worker runs on several
// goroutines at once never hand one core to two workers. Every core New
// returns must be held by no other worker until it is recycled, and each
// run must reach the leaves of a serial run. Under -race, storage two
// cores shared would show as a race too.
func TestConcurrentWorkersOwnTheirCores(t *testing.T) {
	cfg := Config{
		Name:    "test",
		Factory: signal.QueueSignal().New,
		N:       3,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll},
			2: {memsim.CallSignal},
		},
	}
	const depth = 9
	var mu sync.Mutex
	held := map[*Core]bool{}
	run := func(workers int) (leafWalk, bool) {
		pool := NewPool(checkpoint.KindExplore, workers, nil, nil)
		ws := make([]Worker, workers)
		walks := make([]leafWalk, workers)
		ok := true
		for i := range ws {
			e, err := New(cfg, func(*Core, Policy) (Policy, error) { return nopPolicy{}, nil })
			if err != nil {
				t.Error(err)
				return leafWalk{}, false
			}
			mu.Lock()
			if held[e] {
				t.Errorf("core %p handed to a second worker while a first held it", e)
				ok = false
			}
			held[e] = true
			mu.Unlock()
			ws[i] = NewWorker(pool, i, e, nil)
		}
		pool.Drive(func(id int, task worksteal.Task) error {
			if _, err := ws[id].Start(task); err != nil {
				return err
			}
			return walks[id].dfs(&ws[id], len(task), depth)
		})
		if err := pool.Err(); err != nil {
			t.Error(err)
			ok = false
		}
		var total leafWalk
		for i := range ws {
			total.leaves += walks[i].leaves
			for j := range total.keys {
				total.keys[j] ^= walks[i].keys[j]
			}
			mu.Lock()
			delete(held, ws[i].Core)
			mu.Unlock()
			ws[i].Core.Recycle()
		}
		return total, ok
	}
	want, ok := run(1)
	if !ok || want.leaves == 0 {
		t.Fatalf("the serial walk reached %d leaves", want.leaves)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, ok := run(3)
				if !ok {
					return
				}
				if got != want {
					t.Errorf("a 3-worker walk reached %d leaves (keys %x), the serial walk %d (keys %x)",
						got.leaves, got.keys, want.leaves, want.keys)
					return
				}
			}
		}()
	}
	wg.Wait()
}
