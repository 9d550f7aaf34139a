package engine

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/errs"
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
// The value is what a claim carries, stored inline in the slot: nothing
// for the explorer's claim-once dedup (V = struct{}), the subtree answer
// and its flags for the searcher's memo. A value that changes after its
// claim is read and written under the stripe lock (Mutex, ClaimLocked,
// FindLocked).
//
// Claims hash to one of tableStripes independently locked stripes, so
// workers contend only when their states collide on a stripe. Within a
// stripe the pairs sit in an open-addressed slot array over the interned
// 128-bit state hash: linear probing from a start taken from the key's
// second half (the stripe index consumes the first), power-of-two
// growth at 75% load — no per-claim allocation and no re-hashing of the
// already-hashed key.
//
// A stripe's slot array is a fixed directory of segments: segs[0] and
// segs[1] hold segMin slots each, segs[k] holds segMin·2^(k−1), so the
// first k+1 segments are one logical array of segMin·2^k slots. A
// doubling allocates one segment as large as the current capacity and
// re-inserts the live slots, in index order, through a scratch buffer
// the whole table shares; no slot array is ever discarded. Slot positions
// are those of a single array grown by copying, so Export order does not
// depend on the segmenting.
//
// Runs take their table from a TablePool and return it when done. Put
// empties the table back to its fresh layout but keeps the zeroed
// segments its last run grew, and a doubling that finds its segment
// already allocated reuses it instead of making it. So each segment is
// allocated once per process, not once per run, while every run still
// sees exactly the table NewTable returns: the same slot positions, Export
// order, Len and Bytes.
type Table[V any] struct {
	stripes [tableStripes]stripe[V]

	growMu  sync.Mutex // guards scratch and scratchRun; taken under a stripe lock
	scratch []slot[V]  // a growing stripe's live slots, reused by every stripe
	// scratchRun is the capacity, in slots, the scratch buffer of a table
	// new to this run would have grown to: what Bytes counts, so Bytes
	// stays a function of the run while a recycled table keeps a larger
	// buffer from an earlier run.
	scratchRun int
}

// tableStripes only needs to comfortably exceed any plausible worker
// count: contention on a stripe is about workers/tableStripes.
const tableStripes = 64

// segMin is the size of a stripe's first two segments; maxSegs bounds
// a stripe at segMin·2^(maxSegs−1) slots.
const (
	segMin  = 64
	maxSegs = 32
)

// slot is one open-addressed slot. The value comes first: a trailing
// zero-size field would pad the empty-value slot from 20 to 24 bytes.
// The budget is biased by one so the zero slot is the empty sentinel.
type slot[V any] struct {
	val    V
	state  [16]byte
	budget int32
}

// stripe keeps its lock and counts ahead of the segment directory, so
// they share a cache line with the first segment's header.
type stripe[V any] struct {
	mu   sync.Mutex
	mask uint64 // capacity − 1; the capacity is a power of two
	used int
	segs [maxSegs][]slot[V]
}

// NewTable returns an empty table. Every stripe's first segment comes
// from one allocation. Runs take their table from a TablePool, which
// calls NewTable only when it holds none.
func NewTable[V any]() *Table[V] {
	t := &Table[V]{}
	first := make([]slot[V], tableStripes*segMin)
	for i := range t.stripes {
		t.stripes[i].segs[0] = first[i*segMin : (i+1)*segMin : (i+1)*segMin]
		t.stripes[i].mask = segMin - 1
	}
	return t
}

// TablePool recycles tables across runs. The zero value is ready to use;
// an engine keeps one per value type. A table idle in the pool is
// released by the garbage collector like any sync.Pool item.
type TablePool[V any] struct{ p sync.Pool }

// Get returns an empty table: a recycled one when the pool holds one,
// otherwise a new one.
func (p *TablePool[V]) Get() *Table[V] {
	if t, ok := p.p.Get().(*Table[V]); ok {
		return t
	}
	return NewTable[V]()
}

// Put empties t and keeps it for the next Get. Call it once no worker
// can touch t again; t must not be used after.
func (p *TablePool[V]) Put(t *Table[V]) {
	t.reset()
	p.p.Put(t)
}

// reset empties t back to NewTable's layout. It clears the segments the
// last run used and keeps them for grow to reuse, and drops any segment
// beyond them (one an earlier, larger run grew), so a pooled table holds
// at most its last run's layout. The scratch buffer is cleared and kept;
// the run's scratch count restarts at zero.
func (t *Table[V]) reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		n := len(s.segments())
		for _, seg := range s.segs[:n] {
			clear(seg)
		}
		clear(s.segs[n:])
		s.mask, s.used = segMin-1, 0
	}
	clear(t.scratch[:cap(t.scratch)])
	t.scratchRun = 0
}

func (t *Table[V]) stripe(state [16]byte) *stripe[V] {
	return &t.stripes[binary.LittleEndian.Uint64(state[:8])%tableStripes]
}

// Mutex is the lock of state's stripe, which ClaimLocked and FindLocked
// require held.
func (t *Table[V]) Mutex(state [16]byte) *sync.Mutex { return &t.stripe(state).mu }

// ClaimLocked claims (state, budget) with value v, under state's stripe
// lock, which the caller holds. It returns the pair's value in the
// table — v, when won reports that the caller inserted the pair, and
// the earlier claim's value otherwise. The pointer is valid until the
// lock is released: a later insert may move the slot.
func (t *Table[V]) ClaimLocked(state [16]byte, budget int, v V) (val *V, won bool) {
	s, b := t.stripe(state), int32(budget)+1
	sl := s.probe(state, b)
	if sl.budget != 0 {
		return &sl.val, false
	}
	return t.insert(s, sl, state, b, v), true
}

// FindLocked returns the value claimed for (state, budget), or nil, under
// state's stripe lock, which the caller holds. The pointer is valid until
// the lock is released.
func (t *Table[V]) FindLocked(state [16]byte, budget int) *V {
	if sl := t.stripe(state).probe(state, int32(budget)+1); sl.budget != 0 {
		return &sl.val
	}
	return nil
}

// Claim atomically claims (state, budget) with value v. won reports
// that the caller inserted the pair; otherwise got is the value of the
// earlier claim.
func (t *Table[V]) Claim(state [16]byte, budget int, v V) (got V, won bool) {
	s, b := t.stripe(state), int32(budget)+1
	s.mu.Lock()
	if sl := s.probe(state, b); sl.budget != 0 {
		got = sl.val
	} else {
		t.insert(s, sl, state, b, v)
		got, won = v, true
	}
	s.mu.Unlock()
	return got, won
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

// Len is the number of claimed pairs.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// Bytes is the table's slot storage: every segment of the run's layout
// plus the scratch buffer a table new to the run would hold.
func (t *Table[V]) Bytes() int {
	slots := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		slots += s.capacity()
		s.mu.Unlock()
	}
	t.growMu.Lock()
	slots += t.scratchRun
	t.growMu.Unlock()
	return slots * int(unsafe.Sizeof(slot[V]{}))
}

// ProbeMax is the longest distance from a live slot to its home index:
// the most slots a probe for a claimed pair steps over before it finds
// the pair. It walks every slot.
func (t *Table[V]) ProbeMax() int {
	var longest uint64
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		var at uint64 // the logical index of the slot: segments are contiguous
		for _, seg := range s.segments() {
			for _, sl := range seg {
				if sl.budget != 0 {
					home := binary.LittleEndian.Uint64(sl.state[8:16]) & s.mask
					longest = max(longest, (at-home)&s.mask)
				}
				at++
			}
		}
		s.mu.Unlock()
	}
	return int(longest)
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
		for _, seg := range s.segments() {
			for _, sl := range seg {
				if sl.budget != 0 {
					out = append(out, checkpoint.Entry{State: sl.state, Budget: int(sl.budget) - 1})
					vals = append(vals, sl.val)
				}
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
// loaded once: the first entry wins, as a claim race would. A budget the
// table cannot hold fails with errs.CodeInvalid before anything loads.
// Call it before any worker claims.
func (t *Table[V]) Preload(entries []checkpoint.Entry, load func(checkpoint.Entry) V) error {
	for _, en := range entries {
		if en.Budget < 0 || en.Budget >= math.MaxInt32 {
			return errs.Failuref(errs.CodeInvalid, "table entry budget %d outside [0, %d)", en.Budget, math.MaxInt32)
		}
	}
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
	return nil
}

func (s *stripe[V]) capacity() int { return int(s.mask + 1) }

// segments is the allocated part of the directory.
func (s *stripe[V]) segments() [][]slot[V] { return s.segs[:bits.Len64(s.mask/segMin)+1] }

// at is logical slot i: segment k = bits.Len64(i/segMin) starts at
// segMin·2^(k−1), and clearing the segMin/2 bit of that makes segment
// 0 start at 0.
func (s *stripe[V]) at(i uint64) *slot[V] {
	k := bits.Len64(i / segMin)
	return &s.segs[k][i-(segMin<<k>>1)&^(segMin>>1)]
}

// probe returns the slot holding (state, b), or the empty slot where it
// would go. It is small enough to inline into the claim and lookup
// paths. Called with the stripe lock held.
func (s *stripe[V]) probe(state [16]byte, b int32) *slot[V] {
	for i := binary.LittleEndian.Uint64(state[8:16]); ; i++ {
		sl := s.at(i & s.mask)
		if sl.budget == 0 || sl.budget == b && sl.state == state {
			return sl
		}
	}
}

// insert stores a new pair in the empty slot probe returned, growing the
// stripe at 75% load, and returns the pair's value. Called with the
// stripe lock held.
func (t *Table[V]) insert(s *stripe[V], sl *slot[V], state [16]byte, b int32, v V) *V {
	*sl = slot[V]{val: v, state: state, budget: b}
	if s.used++; s.used*4 < s.capacity()*3 {
		return &sl.val
	}
	t.grow(s)
	return &s.probe(state, b).val
}

// grow doubles s: it stages the live slots in index order in the shared
// scratch buffer, clears the segments, adds one segment as large as the
// current capacity and re-inserts. The buffer is reallocated only when it
// is too small, which a buffer kept from an earlier run may not be. The added segment is one an earlier
// run of a recycled table left allocated, when there is one: reset
// cleared it and no probe of this run has reached it, so it is still
// zero. Called with the stripe lock held.
func (t *Table[V]) grow(s *stripe[V]) {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	// Twice the capacity covers this doubling and the next one.
	if t.scratchRun < s.used {
		t.scratchRun = 2 * s.capacity()
	}
	if cap(t.scratch) < s.used {
		t.scratch = make([]slot[V], 0, 2*s.capacity())
	}
	live := t.scratch[:0]
	segs := s.segments()
	for _, seg := range segs {
		for _, sl := range seg {
			if sl.budget != 0 {
				live = append(live, sl)
			}
		}
		clear(seg)
	}
	if s.segs[len(segs)] == nil {
		s.segs[len(segs)] = make([]slot[V], s.capacity())
	}
	s.mask = s.mask<<1 | 1
	for _, o := range live {
		*s.probe(o.state, o.budget) = o
	}
}
