package engine

import (
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/errs"
	"repro/internal/telemetry"
	"repro/internal/worksteal"
)

// stateOf spreads i over both key halves, like a hashed state: the
// first half picks the stripe, the second the probe start.
func stateOf(i int) [16]byte {
	var s [16]byte
	x := uint64(i)*0x9E3779B97F4A7C15 + 1
	binary.LittleEndian.PutUint64(s[:8], x)
	binary.LittleEndian.PutUint64(s[8:], x^(x>>29)*0xBF58476D1CE4E5B9)
	return s
}

// TestEmptySlotSize pins the claim-once slot at 20 bytes: 16 of state
// and 4 of budget, no padding. The slots are most of an exploration's
// table memory, and a zero-size value placed last would pad each to 24.
func TestEmptySlotSize(t *testing.T) {
	if got := unsafe.Sizeof(slot[struct{}]{}); got != 20 {
		t.Fatalf("empty-value slot is %d bytes, want 20", got)
	}
}

// TestClaimOnceConcurrent: goroutines racing over the same pairs win
// each pair exactly once, and every loser sees the winner's value.
func TestClaimOnceConcurrent(t *testing.T) {
	const pairs, racers = 4096, 8
	tab := NewTable[int]()
	var wins [pairs]atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				// Two budgets per state: distinct pairs.
				k := (i*7 + r*131) % pairs
				got, won := tab.Claim(stateOf(k/2), k%2, r+1)
				if won {
					wins[k].Add(1)
				} else if got < 1 || got > racers {
					t.Errorf("pair %d: loser saw value %d", k, got)
				}
			}
		}()
	}
	wg.Wait()
	for k := range wins {
		if n := wins[k].Load(); n != 1 {
			t.Fatalf("pair %d won %d times, want 1", k, n)
		}
	}
}

// TestGrowthKeepsClaims: a table grown through many doublings still
// holds every claim, with its value, and refuses each pair again.
func TestGrowthKeepsClaims(t *testing.T) {
	const n = 100_000 // ~1,560 pairs per stripe: six doublings from 64 slots
	tab := NewTable[int32]()
	for i := 0; i < n; i++ {
		if _, won := tab.Claim(stateOf(i), i%5, int32(i)); !won {
			t.Fatalf("fresh pair %d lost", i)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Lookup(stateOf(i), i%5); !ok || v != int32(i) {
			t.Fatalf("pair %d: lookup = %d, %v", i, v, ok)
		}
		if _, won := tab.Claim(stateOf(i), i%5, -1); won {
			t.Fatalf("pair %d claimed twice", i)
		}
		if _, ok := tab.Lookup(stateOf(i), i%5+1); ok {
			t.Fatalf("pair %d found under another budget", i)
		}
	}
	if got := len(tab.Export(nil)); got != n {
		t.Fatalf("export holds %d entries, want %d", got, n)
	}
}

// TestExportPreloadRoundTrip: a table exported and preloaded into a
// fresh one holds the same pairs and values, and exports the same
// entries again.
func TestExportPreloadRoundTrip(t *testing.T) {
	fill := func(en *checkpoint.Entry, v int) { en.Cost = v }
	load := func(en checkpoint.Entry) int { return en.Cost }
	src := NewTable[int]()
	for i := 0; i < 1000; i++ {
		src.Claim(stateOf(i), i%3, 10*i)
	}
	snap := &checkpoint.Snapshot{Entries: src.Export(fill)}
	snap.SortEntries()

	dst := NewTable[int]()
	dst.Preload(snap.Entries, load)
	for i := 0; i < 1000; i++ {
		if v, ok := dst.Lookup(stateOf(i), i%3); !ok || v != 10*i {
			t.Fatalf("pair %d: preloaded value %d, %v", i, v, ok)
		}
	}
	again := &checkpoint.Snapshot{Entries: dst.Export(fill)}
	again.SortEntries()
	if len(again.Entries) != len(snap.Entries) {
		t.Fatalf("re-export holds %d entries, want %d", len(again.Entries), len(snap.Entries))
	}
	for i := range snap.Entries {
		a, b := snap.Entries[i], again.Entries[i]
		if a.State != b.State || a.Budget != b.Budget || a.Cost != b.Cost {
			t.Fatalf("entry %d: %+v after round trip, want %+v", i, b, a)
		}
	}

	// Claim-once tables carry no value: the pairs alone round-trip.
	claims := NewTable[struct{}]()
	claims.Preload(claimsUpTo(300).Export(nil), nil)
	for i := 0; i < 300; i++ {
		if _, won := claims.Claim(stateOf(i), 1, struct{}{}); won {
			t.Fatalf("preloaded claim %d won again", i)
		}
	}
}

// claimsUpTo builds a claim-once table holding pairs (i, 1), i < n.
func claimsUpTo(n int) *Table[struct{}] {
	tab := NewTable[struct{}]()
	for i := 0; i < n; i++ {
		tab.Claim(stateOf(i), 1, struct{}{})
	}
	return tab
}

// TestPreloadDuplicatesLoadOnce: a pair listed twice (two shard units
// rooted at the same pair) takes one slot, and the first entry's value
// wins, as a claim race would.
func TestPreloadDuplicatesLoadOnce(t *testing.T) {
	entries := []checkpoint.Entry{
		{State: stateOf(1), Budget: 4, Cost: 7},
		{State: stateOf(2), Budget: 4, Cost: 8},
		{State: stateOf(1), Budget: 4, Cost: 9},
		{State: stateOf(1), Budget: 5, Cost: 10},
	}
	loads := 0
	tab := NewTable[int]()
	tab.Preload(entries, func(en checkpoint.Entry) int { loads++; return en.Cost })
	if loads != 3 {
		t.Fatalf("load ran %d times, want 3", loads)
	}
	if got := len(tab.Export(nil)); got != 3 {
		t.Fatalf("table holds %d entries, want 3", got)
	}
	if v, _ := tab.Lookup(stateOf(1), 4); v != 7 {
		t.Fatalf("duplicate pair holds %d, want the first entry's 7", v)
	}
}

// TestTableBytesBound: claiming 100k pairs allocates at most 1.1× the
// final Bytes(). Growth adds a segment and keeps the old ones, so the
// only allocation besides the live slots is the table header and the
// shared scratch buffer (which Bytes counts).
func TestTableBytesBound(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewTable[int32]()
	for i := 0; i < n; i++ {
		tab.Claim(stateOf(i), i%5, int32(i))
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	if got := tab.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	bytes := uint64(tab.Bytes())
	if allocated*10 > bytes*11 {
		t.Fatalf("claiming %d pairs allocated %d bytes, more than 1.1 × Bytes() = %d", n, allocated, bytes)
	}
	// Every slot counted, at most 75% full (plus one insert) per stripe.
	if slots := bytes / uint64(unsafe.Sizeof(slot[int32]{})); slots*3 < uint64(n)*4-tableStripes*4 {
		t.Fatalf("%d slots for %d pairs: below the 75%% load bound", slots, n)
	}
}

// TestTableGauges: a telemetry run of a pool that watches a table
// reports its entries, bytes and longest probe on the table gauges when
// Drive returns. The longest probe is recounted here by stepping each
// pair's probe from its home slot.
func TestTableGauges(t *testing.T) {
	reg := telemetry.New()
	p := NewPool(checkpoint.KindExplore, 1, reg, nil)
	tab := NewTable[struct{}]()
	p.WatchTable(tab)
	p.Drive(func(int, worksteal.Task) error {
		for i := 0; i < 5000; i++ {
			tab.Claim(stateOf(i), i%2, struct{}{})
		}
		return nil
	})
	probeMax := 0
	for i := 0; i < 5000; i++ {
		st := stateOf(i)
		s := tab.stripe(st)
		steps := 0
		for j := binary.LittleEndian.Uint64(st[8:16]); ; j++ {
			if sl := s.at(j & s.mask); sl.state == st && sl.budget == int32(i%2)+1 {
				break
			}
			steps++
		}
		probeMax = max(probeMax, steps)
	}
	want := map[string]int64{
		"repro_engine_table_entries":   int64(tab.Len()),
		"repro_engine_table_bytes":     int64(tab.Bytes()),
		"repro_engine_table_probe_max": int64(probeMax),
	}
	if want["repro_engine_table_entries"] != 5000 {
		t.Fatalf("Len = %d, want 5000", tab.Len())
	}
	if probeMax == 0 || tab.ProbeMax() != probeMax {
		t.Fatalf("ProbeMax = %d, recounted %d (want it above 0 for 5000 pairs)", tab.ProbeMax(), probeMax)
	}
	seen := 0
	for _, m := range reg.Gather() {
		if v, ok := want[m.Name]; ok {
			seen++
			if m.Kind != "gauge" || m.Value != v {
				t.Fatalf("%s = %s %d, want gauge %d", m.Name, m.Kind, m.Value, v)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("gathered %d of the %d table gauges", seen, len(want))
	}
}

// layout is the number of segments each stripe's capacity spans.
func layout[V any](tab *Table[V]) (n [tableStripes]int) {
	for i := range tab.stripes {
		n[i] = len(tab.stripes[i].segments())
	}
	return n
}

// TestPutKeepsLastLayout: Put empties a table to NewTable's layout and
// keeps exactly the segments its last run grew, all zero. After a large
// run followed by a small one, the pooled table holds no segment beyond
// the small run's layout. The scratch buffer is kept for the next run,
// all zero, and Bytes no longer counts it.
func TestPutKeepsLastLayout(t *testing.T) {
	var pool TablePool[int32]
	tab := NewTable[int32]()
	check := func(run string, want [tableStripes]int) {
		t.Helper()
		if tab.scratch == nil {
			t.Fatalf("after the %s run: the pooled table dropped its scratch buffer", run)
		}
		for j, sl := range tab.scratch[:cap(tab.scratch)] {
			if sl != (slot[int32]{}) {
				t.Fatalf("after the %s run: scratch slot %d still holds a pair", run, j)
			}
		}
		if tab.Len() != 0 || tab.Bytes() != NewTable[int32]().Bytes() {
			t.Fatalf("after the %s run: Len %d, Bytes %d; want an empty table's", run, tab.Len(), tab.Bytes())
		}
		for i := range tab.stripes {
			s := &tab.stripes[i]
			for k, seg := range s.segs {
				if (seg != nil) != (k < want[i]) {
					t.Fatalf("after the %s run: stripe %d segment %d allocated = %v, want the %d segments of the run's layout", run, i, k, seg != nil, want[i])
				}
				for j := range seg {
					if seg[j].budget != 0 {
						t.Fatalf("after the %s run: stripe %d segment %d slot %d still holds a pair", run, i, k, j)
					}
				}
			}
		}
	}
	for i := 0; i < 100_000; i++ {
		tab.Claim(stateOf(i), i%5, int32(i))
	}
	large := layout(tab)
	// The pool is the test's own, so after Put the table is still only
	// the test's to inspect and to use again.
	pool.Put(tab)
	check("large", large)
	for i := 0; i < 3000; i++ {
		tab.Claim(stateOf(i), i%5, int32(i))
	}
	small := layout(tab)
	if small == large {
		t.Fatal("the small run reached the large run's layout; the test needs fewer claims")
	}
	pool.Put(tab)
	check("small", small)
}

// TestRecycledRunAllocatesNothing: a table emptied by Put's reset and
// filled again to the same layout reuses both its segments and its
// scratch buffer, so the second run allocates nothing, and its Bytes
// still match a fresh table's after the same claims.
func TestRecycledRunAllocatesNothing(t *testing.T) {
	fill := func(tab *Table[int32]) {
		for i := 0; i < 20_000; i++ {
			tab.Claim(stateOf(i), i%5, int32(i))
		}
	}
	fresh := NewTable[int32]()
	fill(fresh)
	tab := NewTable[int32]()
	// AllocsPerRun fills the table once to warm up, then reports the
	// mean over the measured refills.
	if allocs := testing.AllocsPerRun(5, func() { tab.reset(); fill(tab) }); allocs != 0 {
		t.Fatalf("a recycled run allocated %v times, want 0", allocs)
	}
	if tab.Bytes() != fresh.Bytes() || tab.Len() != fresh.Len() {
		t.Fatalf("recycled table: Len %d, Bytes %d; fresh: Len %d, Bytes %d",
			tab.Len(), tab.Bytes(), fresh.Len(), fresh.Bytes())
	}
}

// TestTablePoolConcurrent: goroutines sharing a pool each get an empty
// table, fill it to a size of their own and put it back, round after
// round, so tables pass between goroutines and between layouts.
func TestTablePoolConcurrent(t *testing.T) {
	const goroutines, rounds = 4, 20
	var pool TablePool[int32]
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tab := pool.Get()
				if tab.Len() != 0 {
					t.Errorf("goroutine %d round %d: got a table holding %d pairs", g, r, tab.Len())
					return
				}
				n := 500 * (1 + (g+r)%5)
				for i := 0; i < n; i++ {
					if _, won := tab.Claim(stateOf(i), g, int32(r)); !won {
						t.Errorf("goroutine %d round %d: fresh pair %d lost", g, r, i)
						return
					}
				}
				if tab.Len() != n {
					t.Errorf("goroutine %d round %d: Len %d, want %d", g, r, tab.Len(), n)
					return
				}
				pool.Put(tab)
			}
		}()
	}
	wg.Wait()
}

// TestPreloadRejectsBudget: a budget the int32 slot cannot hold (or the
// empty-slot sentinel's −1) fails with CodeInvalid and loads nothing.
func TestPreloadRejectsBudget(t *testing.T) {
	for _, b := range []int{-1, math.MaxInt32, math.MaxInt32 + 5} {
		tab := NewTable[int]()
		err := tab.Preload([]checkpoint.Entry{{State: stateOf(1), Budget: 2}, {State: stateOf(2), Budget: b}}, nil)
		if errs.CodeOf(err) != errs.CodeInvalid {
			t.Fatalf("budget %d: err = %v, want a %s failure", b, err, errs.CodeInvalid)
		}
		if tab.Len() != 0 {
			t.Fatalf("budget %d: %d entries loaded before the refusal", b, tab.Len())
		}
	}
}

// fuzzState maps a fuzz key onto three stripes, so a few thousand
// claims drive a stripe through several doublings; the second half
// spreads the probe starts.
func fuzzState(k uint16) [16]byte {
	var s [16]byte
	binary.LittleEndian.PutUint64(s[:8], uint64(k%3))
	x := uint64(k)*0x9E3779B97F4A7C15 + 1
	binary.LittleEndian.PutUint64(s[8:], x^(x>>31))
	return s
}

// fuzzKey is a fuzzed pair: the key and the budget.
type fuzzKey struct {
	k uint16
	b int
}

// fuzzOps runs a FuzzTable op sequence on tab against a map oracle and
// returns the oracle. Each op is five bytes: kind, key (two), budget and
// value. The bulk op claims 64 consecutive keys, so short inputs still
// grow stripes through several segments.
func fuzzOps(t *testing.T, tab *Table[int32], ops []byte) map[fuzzKey]int32 {
	t.Helper()
	oracle := map[fuzzKey]int32{}
	claim := func(k uint16, b int, v int32) {
		got, won := tab.Claim(fuzzState(k), b, v)
		want, had := oracle[fuzzKey{k, b}]
		switch {
		case won == had:
			t.Fatalf("claim (%d, %d): won = %v with the pair already claimed = %v", k, b, won, had)
		case had && got != want:
			t.Fatalf("claim (%d, %d) lost to %d, want %d", k, b, got, want)
		case !had:
			oracle[fuzzKey{k, b}] = v
		}
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		k := binary.LittleEndian.Uint16(ops[1:3])
		b, v := int(ops[3]%4), int32(ops[4])
		switch ops[0] % 4 {
		case 0:
			claim(k, b, v)
		case 1:
			got, ok := tab.Lookup(fuzzState(k), b)
			want, had := oracle[fuzzKey{k, b}]
			if ok != had || got != want {
				t.Fatalf("lookup (%d, %d) = %d, %v; want %d, %v", k, b, got, ok, want, had)
			}
		case 2:
			st := fuzzState(k)
			mu := tab.Mutex(st)
			mu.Lock()
			p := tab.FindLocked(st, b)
			if _, had := oracle[fuzzKey{k, b}]; (p != nil) != had {
				mu.Unlock()
				t.Fatalf("find (%d, %d) = %v, want present %v", k, b, p != nil, had)
			}
			if p != nil {
				*p = v
				oracle[fuzzKey{k, b}] = v
			}
			mu.Unlock()
		case 3:
			for i := uint16(0); i < 64; i++ {
				claim(k+i, b, v)
			}
		}
	}
	return oracle
}

// FuzzTable runs random claim, lookup and locked-update sequences (see
// fuzzOps) against a map oracle, then checks Len, Bytes and an
// Export→Preload round trip. Its reset arm then puts the table in a
// pool, gets it back and replays the first half of the ops and then all
// of them, each on the recycled table and on a NewTable: the two must
// agree on Len, Bytes and Export order, entry for entry.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 0, 1, 0, 1, 1, 2, 9, 0, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 1, 3, 64, 0, 1, 3, 128, 0, 1, 3, 192, 0, 2, 2, 5, 0, 1, 1, 70, 0, 1})
	// Sixteen bulk claims, 1,024 pairs over three stripes: each grows
	// through three doublings, the first half of the ops through two.
	var grow []byte
	for i := 0; i < 16; i++ {
		grow = binary.LittleEndian.AppendUint16(append(grow, 3), uint16(64*i))
		grow = append(grow, 0, byte(i))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var pool TablePool[int32]
		tab := pool.Get()
		oracle := fuzzOps(t, tab, ops)
		if tab.Len() != len(oracle) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(oracle))
		}
		if min := len(oracle) * int(unsafe.Sizeof(slot[int32]{})); tab.Bytes() < min {
			t.Fatalf("Bytes = %d, below %d live slots' %d", tab.Bytes(), len(oracle), min)
		}
		fill := func(en *checkpoint.Entry, v int32) { en.Cost = int(v) }
		entries := tab.Export(fill)
		if len(entries) != len(oracle) {
			t.Fatalf("export holds %d entries, want %d", len(entries), len(oracle))
		}
		dst := NewTable[int32]()
		if err := dst.Preload(entries, func(en checkpoint.Entry) int32 { return int32(en.Cost) }); err != nil {
			t.Fatal(err)
		}
		for kb, want := range oracle {
			if got, ok := dst.Lookup(fuzzState(kb.k), kb.b); !ok || got != want {
				t.Fatalf("preloaded (%d, %d) = %d, %v; want %d", kb.k, kb.b, got, ok, want)
			}
		}
		src := &checkpoint.Snapshot{Entries: entries}
		again := &checkpoint.Snapshot{Entries: dst.Export(fill)}
		src.SortEntries()
		again.SortEntries()
		for i := range src.Entries {
			if again.Entries[i] != src.Entries[i] {
				t.Fatalf("re-export entry %d = %+v, want %+v", i, again.Entries[i], src.Entries[i])
			}
		}

		// The reset arm: a recycled table behaves as a fresh one.
		for _, replay := range [][]byte{ops[:len(ops)/10*5], ops} {
			pool.Put(tab)
			tab = pool.Get()
			fuzzOps(t, tab, replay)
			fresh := NewTable[int32]()
			fuzzOps(t, fresh, replay)
			if tab.Len() != fresh.Len() || tab.Bytes() != fresh.Bytes() {
				t.Fatalf("replaying %d ops: recycled Len %d, Bytes %d; fresh Len %d, Bytes %d",
					len(replay)/5, tab.Len(), tab.Bytes(), fresh.Len(), fresh.Bytes())
			}
			got, want := tab.Export(fill), fresh.Export(fill)
			if len(got) != len(want) {
				t.Fatalf("replaying %d ops: recycled export holds %d entries, fresh %d", len(replay)/5, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("replaying %d ops: recycled export entry %d = %+v, fresh %+v", len(replay)/5, i, got[i], want[i])
				}
			}
		}
	})
}
