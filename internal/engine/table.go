package engine

import (
	"encoding/binary"
	"sync"

	"repro/internal/checkpoint"
)

// Table is the striped claim table both engines share. Each (canonical
// state, remaining depth budget) pair is claimed by exactly its first
// arrival; every later arrival loses and sees the winner's value. Budget
// is part of the identity because a subtree explored with less budget is
// a truncation of the same subtree with more. Because a claim names the
// pair, not the path that reached it, the set of claimed pairs is a
// function of the configuration alone, whichever worker wins which race
// — the property behind the worker-count independence of every counter.
//
// The value is what a claim carries: nothing for the explorer's
// claim-once dedup (V = struct{}), the published subtree answer for the
// searcher's memo (a pointer into its entry slab).
//
// Claims hash to one of tableStripes independently locked stripes, so
// workers contend only when their states collide on a stripe. Within a
// stripe the pairs sit in an open-addressed slot array over the interned
// 128-bit state hash: linear probing from a start taken from the key's
// second half (the stripe index consumes the first), power-of-two
// growth at 75% load — no per-claim allocation and no re-hashing of the
// already-hashed key.
type Table[V any] struct {
	stripes [tableStripes]stripe[V]
}

// tableStripes only needs to comfortably exceed any plausible worker
// count: contention on a stripe is about workers/tableStripes.
const tableStripes = 64

// slot is one open-addressed slot. The value comes first: a trailing
// zero-size field would pad the empty-value slot from 20 to 24 bytes.
// The budget is biased by one so the zero slot is the empty sentinel.
type slot[V any] struct {
	val    V
	state  [16]byte
	budget int32
}

type stripe[V any] struct {
	mu    sync.Mutex
	slots []slot[V] // power-of-two length
	used  int
}

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] {
	t := &Table[V]{}
	for i := range t.stripes {
		t.stripes[i].slots = make([]slot[V], 64)
	}
	return t
}

func (t *Table[V]) stripe(state [16]byte) *stripe[V] {
	return &t.stripes[binary.LittleEndian.Uint64(state[:8])%tableStripes]
}

// Mutex is the lock of state's stripe, for a value's own
// synchronisation (the memo's lazily made wait channel).
func (t *Table[V]) Mutex(state [16]byte) *sync.Mutex { return &t.stripe(state).mu }

// Claim atomically claims (state, budget) with value v. won reports
// that the caller inserted the pair; otherwise got is the value of the
// earlier claim.
func (t *Table[V]) Claim(state [16]byte, budget int, v V) (got V, won bool) {
	s := t.stripe(state)
	s.mu.Lock()
	sl := s.probe(state, int32(budget)+1)
	if sl.budget != 0 {
		got = sl.val
		s.mu.Unlock()
		return got, false
	}
	s.fill(sl, state, int32(budget)+1, v)
	s.mu.Unlock()
	return v, true
}

// Lookup returns the value claimed for (state, budget), if any.
func (t *Table[V]) Lookup(state [16]byte, budget int) (v V, ok bool) {
	s := t.stripe(state)
	s.mu.Lock()
	if sl := s.probe(state, int32(budget)+1); sl.budget != 0 {
		v, ok = sl.val, true
	}
	s.mu.Unlock()
	return v, ok
}

// Export drains the table into checkpoint entries; fill, when non-nil,
// copies a value's payload into its entry. Call it between units, when
// no worker is claiming.
func (t *Table[V]) Export(fill func(*checkpoint.Entry, V)) []checkpoint.Entry {
	var out []checkpoint.Entry
	var vals []V
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, sl := range s.slots {
			if sl.budget != 0 {
				out = append(out, checkpoint.Entry{State: sl.state, Budget: int(sl.budget) - 1})
				vals = append(vals, sl.val)
			}
		}
		s.mu.Unlock()
	}
	if fill != nil {
		for i := range out {
			fill(&out[i], vals[i])
		}
	}
	return out
}

// Preload claims every entry's pair, with the value load builds from
// the entry (the zero value when load is nil). A pair listed twice is
// loaded once: the first entry wins, as a claim race would. Call it
// before any worker claims.
func (t *Table[V]) Preload(entries []checkpoint.Entry, load func(checkpoint.Entry) V) {
	for _, en := range entries {
		if _, ok := t.Lookup(en.State, en.Budget); ok {
			continue
		}
		var v V
		if load != nil {
			v = load(en)
		}
		t.Claim(en.State, en.Budget, v)
	}
}

// probe returns the slot holding (state, b), or the empty slot where it
// would go. Called with the stripe lock held.
func (s *stripe[V]) probe(state [16]byte, b int32) *slot[V] {
	mask := uint64(len(s.slots) - 1)
	i := binary.LittleEndian.Uint64(state[8:16]) & mask
	for {
		sl := &s.slots[i]
		if sl.budget == 0 || (sl.budget == b && sl.state == state) {
			return sl
		}
		i = (i + 1) & mask
	}
}

// fill stores a new pair in the empty slot probe returned, growing the
// stripe at 75% load. Called with the stripe lock held.
func (s *stripe[V]) fill(sl *slot[V], state [16]byte, b int32, v V) {
	*sl = slot[V]{val: v, state: state, budget: b}
	if s.used++; s.used*4 < len(s.slots)*3 {
		return
	}
	old := s.slots
	s.slots = make([]slot[V], 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, o := range old {
		if o.budget == 0 {
			continue
		}
		i := binary.LittleEndian.Uint64(o.state[8:16]) & mask
		for s.slots[i].budget != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = o
	}
}
