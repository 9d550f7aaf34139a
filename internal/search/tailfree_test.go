package search

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/signal"
)

// Memo entries hold cost only, and the witness comes from one descent
// over the finished table. These tests pin two consequences: a snapshot
// in format version 4, every entry carrying its witness tail, resumes to
// the identical Result, and a search does not allocate per tree node.

// memoPair is a memo key: canonical state and remaining budget.
type memoPair struct {
	state  [16]byte
	budget int
}

// tailed is a pre-version-5 memo answer: the maximal tail cost and the
// lexicographically least tail achieving it.
type tailed struct {
	cost int
	tail []int
}

// tailsDFS recomputes, at the core's current node, the answer a memo
// entry carried before format version 5: a memoized DFS that builds each
// node's tail from its best child's, ties going to the smallest index.
// It fills memo with every internal node's answer.
func tailsDFS(t *testing.T, e *pricer, depth, maxDepth int, memo map[memoPair]tailed) tailed {
	t.Helper()
	choices := e.SettleAt(depth)
	budget := maxDepth - depth
	if len(choices) == 0 || budget == 0 {
		return tailed{}
	}
	k := memoPair{e.StateKey(), budget}
	if v, ok := memo[k]; ok {
		return v
	}
	var earlier [64]uint64
	m := e.Save()
	best := tailed{cost: -1}
	for i := range choices {
		if _, err := e.Child(nil, choices, i, 0, &earlier); err != nil {
			t.Fatal(err)
		}
		step := e.step
		child := tailsDFS(t, e, depth+1, maxDepth, memo)
		if total := step + child.cost; total > best.cost {
			best = tailed{total, append([]int{i}, child.tail...)}
		}
		e.Restore(m)
	}
	e.Release(m)
	memo[k] = best
	return best
}

// encodeV4 renders s as a format version 4 file: the version 5 layout
// with each entry's witness tail between its cost and its adoption byte.
func encodeV4(s *checkpoint.Snapshot, tail func(checkpoint.Entry) []int) []byte {
	le := binary.LittleEndian
	ints := func(b []byte, v []int) []byte {
		b = le.AppendUint32(b, uint32(len(v)))
		for _, x := range v {
			b = le.AppendUint32(b, uint32(int32(x)))
		}
		return b
	}
	str := func(b []byte, v string) []byte {
		return append(le.AppendUint32(b, uint32(len(v))), v...)
	}
	b := []byte{byte(s.Kind)}
	b = str(b, s.Fingerprint)
	b = le.AppendUint64(b, uint64(s.ShardDepth))
	b = le.AppendUint32(b, uint32(len(s.Units)))
	for _, u := range s.Units {
		b = ints(b, u)
	}
	b = le.AppendUint32(b, uint32(len(s.Done)))
	for _, d := range s.Done {
		b = le.AppendUint32(b, d)
	}
	c := s.Counters
	for _, v := range []int{c.Paths, c.Truncated, c.Pruned, c.Deduped, c.MaxDepthReached, c.StepsSlept, c.SymmetryMerges} {
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint32(b, uint32(len(s.Entries)))
	for _, en := range s.Entries {
		b = append(b, en.State[:]...)
		b = le.AppendUint64(b, uint64(en.Budget))
		b = le.AppendUint64(b, uint64(en.Cost))
		b = ints(b, tail(en))
		adopted := byte(0)
		if en.Adopted {
			adopted = 1
		}
		b = append(b, adopted)
	}
	b = le.AppendUint32(b, uint32(len(s.Telemetry)))
	for _, tc := range s.Telemetry {
		b = str(b, tc.Name)
		b = le.AppendUint64(b, uint64(tc.Value))
	}
	hdr := []byte("RPCK")
	hdr = le.AppendUint16(hdr, 4)
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(b))
	hdr = le.AppendUint64(hdr, uint64(len(b)))
	return append(hdr, b...)
}

// TestResumeVersion4SnapshotWithTails: a mid-run snapshot in format
// version 4, every entry carrying the real witness tail an older build
// stored, resumes on this build to a Result byte-identical to an
// uninterrupted run's. The tails are skipped on read; the costs and
// adoption bits they sat between mean what they always did. The descent
// witness also equals the tail-building DFS's root tail.
func TestResumeVersion4SnapshotWithTails(t *testing.T) {
	cfg, err := normalize(Config{
		Factory: signal.Flag().New,
		N:       3,
		Scripts: map[memsim.PID][]memsim.CallKind{
			0: {memsim.CallPoll, memsim.CallPoll},
			1: {memsim.CallPoll, memsim.CallPoll},
			2: {memsim.CallSignal},
		},
		MaxDepth: 10,
		Model:    model.ModelCC,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.rpck")
	ck := Checkpoint{Path: path, Tag: "flag", StopAfter: 2}
	if _, err := RunCheckpointed(cfg, ck); !errs.IsInterrupt(err) {
		t.Fatalf("stopped run: %v, want an interrupt", err)
	}
	snap, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Done) == 0 || len(snap.Done) == len(snap.Units) || len(snap.Entries) == 0 {
		t.Fatalf("snapshot is not mid-run: %d of %d units done, %d entries",
			len(snap.Done), len(snap.Units), len(snap.Entries))
	}

	e, err := newPricer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo := map[memoPair]tailed{}
	root := tailsDFS(t, e, 0, cfg.MaxDepth, memo)
	if root.cost != want.WorstCost || !slices.Equal(root.tail, want.Witness) {
		t.Fatalf("descent found %v (cost %d), the tail-building DFS %v (cost %d)",
			want.Witness, want.WorstCost, root.tail, root.cost)
	}
	tails := 0
	raw := encodeV4(snap, func(en checkpoint.Entry) []int {
		v, ok := memo[memoPair{en.State, en.Budget}]
		if !ok || v.cost != en.Cost {
			t.Fatalf("entry %x/%d (cost %d) has no matching tail-building answer %+v", en.State, en.Budget, en.Cost, v)
		}
		if len(v.tail) > 0 {
			tails++
		}
		return v.tail
	})
	if tails == 0 {
		t.Fatal("no entry carries a tail")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err := checkpoint.Read(path); err != nil || !reflect.DeepEqual(back, snap) {
		t.Fatalf("version 4 rendering reads back as %+v (%v), want %+v", back, err, snap)
	}

	ck.Resume, ck.StopAfter = true, 0
	got, err := RunCheckpointed(cfg, ck)
	if err != nil {
		t.Fatalf("resuming the version 4 snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result differs:\n got %+v\nwant %+v", got, want)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("JSON bytes differ:\n got %s\nwant %s", gb, wb)
	}
}

// TestSearchAllocsBelowPaths guards against a per-node allocation in the
// exhaustive search: a run of the queue workload under CC (three waiters
// with four polls each, depth 24; about 43k scored paths and 60k memo
// entries) must allocate fewer than half as many times as it scores
// paths. The run allocated about 69k times while every memo entry built
// its own witness tail; without tails it allocates about 7k times, so a
// per-node allocation of any kind breaks the bound.
func TestSearchAllocsBelowPaths(t *testing.T) {
	polls := []memsim.CallKind{memsim.CallPoll, memsim.CallPoll, memsim.CallPoll, memsim.CallPoll}
	cfg := Config{
		Factory:  signal.QueueSignal().New,
		N:        4,
		Scripts:  map[memsim.PID][]memsim.CallKind{0: polls, 1: polls, 2: polls, 3: {memsim.CallSignal}},
		MaxDepth: 24,
		Model:    model.ModelCC,
		Workers:  1,
	}
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if bound := float64(res.Paths) / 2; allocs >= bound {
		t.Fatalf("search allocated %.0f times for %d scored paths, want fewer than %.0f",
			allocs, res.Paths, bound)
	}
	t.Logf("%.0f allocations, %d scored paths", allocs, res.Paths)
}
