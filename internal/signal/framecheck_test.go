package signal

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gme"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/mutex"
	"repro/internal/semisync"
)

// Frame-level checks of the two things the engines take on trust from
// every frame: that its AppendState partition is behavioural (equal keys,
// equal futures), and that CloneInto makes an independent continuation.
// Both drive frames straight on a memsim.Machine, over every signaling
// algorithm of All() and every Blockified polling one on the framegolden
// scripts, and over the lock passages of mutex.All(), the GME room and
// Fischer's lock.

// frameRow is one workload the checks drive; mk returns it fresh.
type frameRow struct {
	name string
	mk   func() harness.Workload
}

// frameRows returns every row, in a fixed order.
func frameRows() (rows []frameRow) {
	add := func(name string, mk func() harness.Workload) {
		rows = append(rows, frameRow{name, mk})
	}
	algs := All()
	for _, a := range All() {
		if a.Variant.Polling {
			algs = append(algs, Blockified(a))
		}
	}
	for _, alg := range algs {
		var kinds []memsim.CallKind
		if alg.Variant.Polling {
			kinds = append(kinds, memsim.CallPoll)
		}
		if alg.Variant.Blocking {
			kinds = append(kinds, memsim.CallWait)
		}
		for _, kind := range kinds {
			add(fmt.Sprintf("%s/%v", alg.Name, kind), func() harness.Workload {
				n, scripts := goldenScripts(alg, kind)
				return &scriptWorkload{alg: alg, n: n, scripts: scripts, progress: make([]int, n), current: make([]memsim.CallKind, n)}
			})
		}
	}
	for _, alg := range mutex.All() {
		add("mutex/"+alg.Name, func() harness.Workload { return mutex.NewWorkload(alg, 3, 2) })
	}
	add("gme", func() harness.Workload { return gme.NewWorkload(3, 2, 2) })
	add("fischer", func() harness.Workload { return semisync.NewWorkload(3, 2, 2) })
	return rows
}

// scriptWorkload runs a framegolden script with calls minted fresh by the
// instance: a completed Poll that returns true ends its waiter's script.
type scriptWorkload struct {
	alg      Algorithm
	n        int
	scripts  map[memsim.PID][]memsim.CallKind
	inst     memsim.Instance
	progress []int
	current  []memsim.CallKind
}

func (w *scriptWorkload) N() int { return w.n }

func (w *scriptWorkload) Deploy(m *memsim.Machine) (err error) {
	w.inst, err = w.alg.New(m, w.n)
	return err
}

func (w *scriptWorkload) Next(p memsim.PID) (string, memsim.Resumable, bool) {
	script := w.scripts[p]
	if w.progress[p] >= len(script) {
		return "", nil, false
	}
	w.current[p] = script[w.progress[p]]
	w.progress[p]++
	f, err := w.inst.ResumableProgram(p, w.current[p])
	if err != nil {
		panic(err)
	}
	return w.current[p].String(), f, true
}

func (w *scriptWorkload) Done(p memsim.PID, ret memsim.Value) {
	if w.current[p] == memsim.CallPoll && ret != 0 {
		w.progress[p] = len(w.scripts[p])
	}
}

// frameObserver watches a driveFrames run. parked sees every live frame,
// parked at its pending access, before each scheduling decision; stepped
// sees each Next of a live frame, with the result it was fed.
type frameObserver interface {
	parked(p memsim.PID, name string, f memsim.Resumable)
	stepped(p memsim.PID, prev memsim.Result, acc memsim.Access, ok bool, f memsim.Resumable)
}

// driveFrames runs w's calls straight on a Machine under a seeded random
// schedule of at most 3000 steps: idle processes start their next call,
// and each step applies one pending access and feeds its result to the
// frame that issued it.
func driveFrames(t *testing.T, w harness.Workload, seed int64, obs frameObserver) {
	t.Helper()
	n := w.N()
	m := memsim.NewMachine(n)
	if err := w.Deploy(m); err != nil {
		t.Fatal(err)
	}
	frames := make([]memsim.Resumable, n)
	names := make([]string, n)
	pending := make([]memsim.Access, n)
	advance := func(p memsim.PID, prev memsim.Result) {
		acc, ok := frames[p].Next(prev)
		obs.stepped(p, prev, acc, ok, frames[p])
		if ok {
			pending[p] = acc
			return
		}
		w.Done(p, frames[p].Return())
		frames[p] = nil
	}
	rng := rand.New(rand.NewSource(seed))
	for steps := 0; steps < 3000; steps++ {
		var ready []memsim.PID
		for i := 0; i < n; i++ {
			p := memsim.PID(i)
			for frames[p] == nil {
				name, f, ok := w.Next(p)
				if !ok {
					break
				}
				frames[p], names[p] = f, name
				advance(p, memsim.Result{})
			}
			if frames[p] != nil {
				obs.parked(p, names[p], frames[p])
				ready = append(ready, p)
			}
		}
		if len(ready) == 0 {
			return
		}
		p := ready[rng.Intn(len(ready))]
		advance(p, m.Apply(p, pending[p]))
	}
}

// resultSeqs returns count reproducible sequences of depth results each:
// values a frame may meet (NIL and small process IDs or counts) with
// random success flags.
func resultSeqs(count, depth int) [][]memsim.Result {
	rng := rand.New(rand.NewSource(7))
	vals := []memsim.Value{memsim.Nil, 0, 1, 2, 3}
	seqs := make([][]memsim.Result, count)
	for i := range seqs {
		for j := 0; j < depth; j++ {
			seqs[i] = append(seqs[i], memsim.Result{Val: vals[rng.Intn(len(vals))], OK: rng.Intn(2) == 0, Wrote: rng.Intn(2) == 0})
		}
	}
	return seqs
}

// continuation feeds seq to f, parked at a pending access, and renders
// what f does: each access it issues, then its return value — or the
// panic that stopped it, since arbitrary results may violate what the
// frame assumes of memory.
func continuation(f memsim.Resumable, seq []memsim.Result) (out string) {
	var b strings.Builder
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(&b, "panic: %v", r)
		}
		out = b.String()
	}()
	for _, r := range seq {
		acc, ok := f.Next(r)
		if !ok {
			fmt.Fprintf(&b, "return %d", f.Return())
			break
		}
		fmt.Fprintf(&b, "%+v; ", acc)
	}
	return
}

// TestFrameStateIsBehavioural is the behavioural oracle of every frame's
// state key. Each live frame is snapshotted (CloneInto(nil)) at every
// scheduling point of three seeded runs and grouped by pid, call name and
// AppendFrameState bytes. Two frames in one group must be
// indistinguishable: fed the same sequences of access results, they issue
// the same accesses and return the same value. Each group's later members
// are compared with its first on the same sequences, so every pair agrees;
// members equal field by field to one already compared are skipped, and a
// group compares at most 16.
func TestFrameStateIsBehavioural(t *testing.T) {
	seqs := resultSeqs(6, 10)
	for _, row := range frameRows() {
		t.Run(row.name, func(t *testing.T) {
			o := &behaviourOracle{t: t, seqs: seqs, groups: make(map[string]*behaviourGroup)}
			for seed := int64(1); seed <= 3; seed++ {
				driveFrames(t, row.mk(), seed, o)
			}
			shared := 0
			for _, g := range o.groups {
				if len(g.members) > 1 {
					shared++
				}
			}
			t.Logf("%d state keys, %d held by more than one distinct frame", len(o.groups), shared)
		})
	}
}

type behaviourOracle struct {
	t      *testing.T
	seqs   [][]memsim.Result
	groups map[string]*behaviourGroup
}

// behaviourGroup is one state key's first member's continuations and the
// snapshots compared so far.
type behaviourGroup struct {
	want    []string
	members []memsim.Resumable
}

func (o *behaviourOracle) parked(p memsim.PID, name string, f memsim.Resumable) {
	key := string(memsim.AppendFrameState([]byte(fmt.Sprintf("p%d %s ", p, name)), f))
	g := o.groups[key]
	if g == nil {
		g = &behaviourGroup{}
		o.groups[key] = g
	}
	if len(g.members) >= 16 {
		return
	}
	for _, s := range g.members {
		if reflect.DeepEqual(s, f) {
			return
		}
	}
	g.members = append(g.members, f.CloneInto(nil))
	for k, seq := range o.seqs {
		got := continuation(f.CloneInto(nil), seq)
		if len(g.want) < len(o.seqs) {
			g.want = append(g.want, got)
		} else if got != g.want[k] {
			o.t.Fatalf("p%d %s: two %T states share the key %x but differ on results %v:\n first: %s\n later: %s",
				p, name, f, key, seq, g.want[k], got)
		}
	}
}

func (o *behaviourOracle) stepped(memsim.PID, memsim.Result, memsim.Access, bool, memsim.Resumable) {}

// TestFrameCopyDifferential checks CloneInto on every frame the rows
// mint, at every scheduling point of three seeded runs. Each live frame is
// copied into nil, into a stale frame of its type (a copy taken earlier in
// the run and since advanced elsewhere) and into a frame of another type.
// Every copy must have the source's type and encoding, and only the stale
// destination may be reused (and then must be). The stale-destination
// copy is stepped on a sequence of arbitrary results, after which the
// source must still encode as before. The other two copies shadow the
// source: each later result the source is fed is fed to them too, for up
// to 8 steps or to the end of the call, and they must issue the same
// accesses and return the same value. A copy that shared a sub-frame
// with its source fails one of these.
func TestFrameCopyDifferential(t *testing.T) {
	seqs := resultSeqs(4, 10)
	for _, row := range frameRows() {
		t.Run(row.name, func(t *testing.T) {
			c := &copyCheck{t: t, seqs: seqs, stale: make(map[reflect.Type]memsim.Resumable)}
			for seed := int64(1); seed <= 3; seed++ {
				c.shadows = make(map[memsim.PID][]shadow)
				driveFrames(t, row.mk(), seed, c)
			}
			t.Logf("%d frames copied three ways, %d shadow steps", c.parks, c.shadowSteps)
		})
	}
}

type copyCheck struct {
	t                  *testing.T
	seqs               [][]memsim.Result
	stale              map[reflect.Type]memsim.Resumable // retired shadows, one per type
	shadows            map[memsim.PID][]shadow
	parks, shadowSteps int
}

// shadow is a copy following its source's run for left more steps.
type shadow struct {
	f    memsim.Resumable
	how  string
	left int
}

func (c *copyCheck) parked(p memsim.PID, name string, f memsim.Resumable) {
	t := c.t
	c.parks++
	want := memsim.AppendFrameState(nil, f)
	typ := reflect.TypeOf(f)
	stale := c.stale[typ]
	delete(c.stale, typ)
	foreign := &foreignFrame{pc: 7}
	foreignKey := memsim.AppendFrameState(nil, foreign)
	copies := []struct {
		how string
		dst memsim.Resumable
	}{{"nil", nil}, {"stale", stale}, {"foreign", foreign}}
	got := make([]memsim.Resumable, len(copies))
	for i, cp := range copies {
		r := f.CloneInto(cp.dst)
		switch {
		case reflect.TypeOf(r) != typ:
			t.Fatalf("p%d %s: %T copied into %s dst is a %T", p, name, f, cp.how, r)
		case r == f:
			t.Fatalf("p%d %s: %T copied into %s dst returned the source", p, name, f, cp.how)
		case cp.how == "stale" && stale != nil && r != stale:
			t.Fatalf("p%d %s: %T copied into a stale %T did not reuse it", p, name, f, stale)
		case !bytes.Equal(memsim.AppendFrameState(nil, r), want):
			t.Fatalf("p%d %s: %T copied into %s dst encodes differently from its source", p, name, f, cp.how)
		}
		got[i] = r
	}
	if !bytes.Equal(memsim.AppendFrameState(nil, foreign), foreignKey) {
		t.Fatalf("p%d %s: copying a %T into a %T changed the destination", p, name, f, foreign)
	}
	continuation(got[1], c.seqs[c.parks%len(c.seqs)])
	if !bytes.Equal(memsim.AppendFrameState(nil, f), want) {
		t.Fatalf("p%d %s: stepping a copy of a %T changed the source", p, name, f)
	}
	c.stale[typ] = got[1]
	if len(c.shadows[p]) < 4 {
		c.shadows[p] = append(c.shadows[p], shadow{got[0], "nil", 8}, shadow{got[2], "foreign", 8})
	}
}

func (c *copyCheck) stepped(p memsim.PID, prev memsim.Result, acc memsim.Access, ok bool, f memsim.Resumable) {
	live := c.shadows[p][:0]
	for _, s := range c.shadows[p] {
		c.shadowSteps++
		sacc, sok := s.f.Next(prev)
		if sacc != acc || sok != ok {
			c.t.Fatalf("p%d: a %T copied into a %s dst issued %+v/%v where its source issued %+v/%v",
				p, f, s.how, sacc, sok, acc, ok)
		}
		if !ok && s.f.Return() != f.Return() {
			c.t.Fatalf("p%d: a %T copied into a %s dst returned %d, its source %d", p, f, s.how, s.f.Return(), f.Return())
		}
		if s.left--; ok && s.left > 0 {
			live = append(live, s)
		} else {
			c.stale[reflect.TypeOf(s.f)] = s.f
		}
	}
	c.shadows[p] = live
}

// foreignFrame is a frame of a type no row mints: the wrong-type CloneInto
// destination.
type foreignFrame struct{ pc uint8 }

func (f *foreignFrame) Next(memsim.Result) (memsim.Access, bool) { return memsim.Access{}, false }

func (f *foreignFrame) Return() memsim.Value { return 0 }

func (f *foreignFrame) CloneInto(dst memsim.Resumable) memsim.Resumable {
	return memsim.CopyFrame(f, dst)
}
