package engine

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
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
