package model

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/memsim"
)

// Accumulator prices one execution's events incrementally. It is the
// streaming counterpart of CostModel.Score: feed it every trace event in
// order and Report returns the same totals a batch Score of the full trace
// would, without the trace ever being materialized.
//
// An Accumulator is bound to a single run (it carries the run's cache
// state) and is not safe for concurrent use.
type Accumulator interface {
	// Add prices one event, folds it into the running report, and returns
	// the event's individual cost (the streaming counterpart of one entry
	// of Annotator.Annotate). Non-access events cost nothing.
	Add(ev memsim.Event) Cost
	// Report returns a snapshot of the totals accumulated so far. It may
	// be called at any point; the returned Report does not alias the
	// accumulator's internal state.
	Report() *Report
}

// Scorer is a cost model that can price events online, as a run generates
// them. Begin opens an accumulator for one run of n processes whose memory
// module mapping is owner; the same Scorer can serve any number of
// concurrent runs because all mutable state lives in the Accumulator.
//
// Both architecture models (DSM and every CC variant) implement Scorer.
type Scorer interface {
	CostModel
	Begin(n int, owner func(memsim.Addr) memsim.PID) Accumulator
}

// Compile-time checks: both architecture models stream.
var (
	_ Scorer = DSM{}
	_ Scorer = CC{}
)

// reportState is the shared running-total bookkeeping of the accumulators.
type reportState struct {
	rep Report
}

// reset zeroes s for a new run of n processes under the model name,
// keeping PerProc's backing array when it is large enough.
func (s *reportState) reset(name string, n int) {
	s.rep = Report{Model: name, PerProc: zeroed(s.rep.PerProc, n)}
}

// zeroed returns s resized to n zero elements, reusing its backing array
// when its capacity suffices.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fold charges cost to pid.
func (s *reportState) fold(pid memsim.PID, c Cost) {
	if c.RMR {
		s.rep.PerProc[pid]++
		s.rep.Total++
	}
	s.rep.Messages += c.Messages
	s.rep.Invalidations += c.Invalidations
}

// Report implements Accumulator.
func (s *reportState) Report() *Report {
	cp := s.rep
	cp.PerProc = append([]int(nil), s.rep.PerProc...)
	return &cp
}

// Finish hands the running report over without copying. The accumulator
// must not be fed further events afterwards; FinalReport uses it to
// harvest completed runs allocation-free.
func (s *reportState) Finish() *Report { return &s.rep }

// FinalReport extracts a finished accumulator's report. Accumulators that
// support ownership transfer (all in this package) hand their report over
// without the defensive copy Report makes; for others it falls back to
// Report. The accumulator must not be used afterwards.
func FinalReport(a Accumulator) *Report {
	if f, ok := a.(interface{ Finish() *Report }); ok {
		return f.Finish()
	}
	return a.Report()
}

// ForkableAccumulator is an Accumulator whose per-run state can be copied
// mid-run. Fork returns an independent accumulator in exactly the current
// state: feeding the original and the fork the same further events yields
// identical costs and reports, and feeding them different events never
// affects one another. Backtracking searches (internal/search) fork the
// accumulator at every tree node so a schedule prefix's pricing state can
// be rewound by restoring the fork.
//
// Both architecture models' accumulators implement it.
type ForkableAccumulator interface {
	Accumulator
	Fork() Accumulator
}

// ReusingForker is a ForkableAccumulator that can additionally fork into
// the backing storage of a discarded accumulator: ForkReuse(spare) behaves
// exactly like Fork but recycles spare's allocations when spare is a
// compatible accumulator (same Scorer, same Begin parameters). spare must
// not be used by the caller afterwards. Backtracking searches restore a
// node by forking the saved accumulator into the one being discarded, so
// the per-node save/restore cycle stops allocating.
type ReusingForker interface {
	ForkableAccumulator
	ForkReuse(spare Accumulator) Accumulator
}

// ReusingScorer is a Scorer that can open an accumulator in the storage of
// a finished one: BeginReuse(spare, n, owner) behaves exactly like
// Begin(n, owner) but resets spare's report and cache state in place,
// keeping their backing arrays, when spare is an accumulator of the same
// kind; for any other spare, nil included, it is Begin. spare must not be
// used by the caller afterwards, nor any report FinalReport took from it.
// A forward run that keeps the last run's accumulators (internal/harness)
// passes them back as spares, so a warm run allocates no accumulator.
type ReusingScorer interface {
	Scorer
	BeginReuse(spare Accumulator, n int, owner func(memsim.Addr) memsim.PID) Accumulator
}

// ModelStateAppender is an Accumulator that can append a canonical
// encoding of its mutable pricing state to dst (for CC: the simulated
// cache contents; for DSM: nothing, the rule is stateless) and return the
// extended buffer. The contract mirrors memsim.StateAppender: equal
// pricing states must append equal bytes, different states different
// bytes, and the encoding must be engine-independent — a function of
// machine addresses, process IDs and counters, never of heap addresses or
// map iteration order — because searches compare encodings produced by
// different workers' runs. The future cost of any event sequence is a
// function of this state, which is what lets a search key memoized
// subtree results on (machine state, model state, budget).
type ModelStateAppender interface {
	Accumulator
	AppendModelState(dst []byte) []byte
}

// fork copies the shared running-total bookkeeping.
func (s *reportState) fork() reportState {
	cp := s.rep
	cp.PerProc = append([]int(nil), s.rep.PerProc...)
	return reportState{rep: cp}
}

// forkInto copies the running totals into dst, reusing dst's PerProc
// backing array when it is large enough.
func (s *reportState) forkInto(dst *reportState) {
	pp := dst.rep.PerProc
	if cap(pp) < len(s.rep.PerProc) {
		pp = make([]int, len(s.rep.PerProc))
	} else {
		pp = pp[:len(s.rep.PerProc)]
	}
	copy(pp, s.rep.PerProc)
	dst.rep = s.rep
	dst.rep.PerProc = pp
}

// Fork implements ForkableAccumulator. The DSM rule is stateless per
// event, so only the running totals are copied.
func (a *dsmAccumulator) Fork() Accumulator {
	return &dsmAccumulator{reportState: a.reportState.fork(), owner: a.owner}
}

// ForkReuse implements ReusingForker.
func (a *dsmAccumulator) ForkReuse(spare Accumulator) Accumulator {
	sp, ok := spare.(*dsmAccumulator)
	if !ok || sp == nil {
		return a.Fork()
	}
	a.reportState.forkInto(&sp.reportState)
	sp.owner = a.owner
	return sp
}

// AppendModelState implements ModelStateAppender. The DSM rule prices
// every event from the owner mapping alone, so there is no mutable state
// to encode.
func (a *dsmAccumulator) AppendModelState(dst []byte) []byte { return dst }

// Fork implements ForkableAccumulator: the simulated cache state (sharer
// bitmasks, exclusive owners, eviction counters) is copied into fresh
// backing arrays.
func (a *ccAccumulator) Fork() Accumulator {
	return a.ForkReuse(nil)
}

// ForkReuse implements ReusingForker: the fork writes into spare's backing
// arrays when spare is a discarded ccAccumulator, so a steady-state
// save/restore cycle allocates nothing.
func (a *ccAccumulator) ForkReuse(spare Accumulator) Accumulator {
	cp, ok := spare.(*ccAccumulator)
	if !ok || cp == nil {
		cp = &ccAccumulator{}
	}
	a.reportState.forkInto(&cp.reportState)
	cp.cfg = a.cfg
	cp.n = a.n
	cp.words = a.words
	cp.sharers = copyInto(cp.sharers, a.sharers)
	cp.exclusive = copyInto(cp.exclusive, a.exclusive)
	cp.accessCount = copyInto(cp.accessCount, a.accessCount)
	return cp
}

// copyInto copies src into dst's backing array, growing dst only when its
// capacity is insufficient. An empty src, nil included, empties dst and
// keeps its backing array for the rows a later caching write grows.
func copyInto[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, len(src))
	} else {
		dst = dst[:len(src)]
	}
	copy(dst, src)
	return dst
}

// AppendModelState implements ModelStateAppender: cached copies in
// address order (sharer sets in PID order), exclusive owners in address
// order, and — only under the eviction ablation — each process's access
// count modulo the eviction period (counts with equal residue price every
// future event identically). Addresses with no sharers are canonical
// no-ops and are skipped. Every section is count-prefixed, keeping the
// encoding self-delimiting.
func (a *ccAccumulator) AppendModelState(dst []byte) []byte {
	nonempty := 0
	for addr := 0; addr < a.numAddrs(); addr++ {
		if !rowEmpty(a.row(memsim.Addr(addr))) {
			nonempty++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nonempty))
	for addr := 0; addr < a.numAddrs(); addr++ {
		row := a.row(memsim.Addr(addr))
		if rowEmpty(row) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(addr))
		count := 0
		for _, w := range row {
			count += bits.OnesCount64(w)
		}
		dst = binary.AppendUvarint(dst, uint64(count))
		for wi, w := range row {
			for w != 0 {
				p := wi*64 + bits.TrailingZeros64(w)
				dst = binary.AppendUvarint(dst, uint64(p))
				w &= w - 1
			}
		}
	}
	owners := 0
	for addr := 0; addr < a.numAddrs(); addr++ {
		if a.exclusive[addr] >= 0 {
			owners++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(owners))
	for addr := 0; addr < a.numAddrs(); addr++ {
		if a.exclusive[addr] >= 0 {
			dst = binary.AppendUvarint(dst, uint64(addr))
			dst = binary.AppendUvarint(dst, uint64(a.exclusive[addr]))
		}
	}
	if a.cfg.EvictEvery > 0 {
		residues := 0
		for p := 0; p < a.n; p++ {
			if int(a.accessCount[p])%a.cfg.EvictEvery != 0 {
				residues++
			}
		}
		dst = binary.AppendUvarint(dst, uint64(residues))
		for p := 0; p < a.n; p++ {
			if r := int(a.accessCount[p]) % a.cfg.EvictEvery; r != 0 {
				dst = binary.AppendUvarint(dst, uint64(p))
				dst = binary.AppendUvarint(dst, uint64(r))
			}
		}
	}
	return dst
}

func rowEmpty(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
}

// Compile-time checks: both accumulators support forking (with storage
// reuse) and canonical state encoding, the capabilities
// cost-directed search requires.
var (
	_ ForkableAccumulator = (*dsmAccumulator)(nil)
	_ ForkableAccumulator = (*ccAccumulator)(nil)
	_ ReusingForker       = (*dsmAccumulator)(nil)
	_ ReusingForker       = (*ccAccumulator)(nil)
	_ ReusingScorer       = DSM{}
	_ ReusingScorer       = CC{}
	_ ModelStateAppender  = (*dsmAccumulator)(nil)
	_ ModelStateAppender  = (*ccAccumulator)(nil)
)

// dsmAccumulator streams the DSM rule: stateless per event, so it only
// needs the owner mapping and the running totals.
type dsmAccumulator struct {
	reportState
	owner func(memsim.Addr) memsim.PID
}

// Begin implements Scorer.
func (d DSM) Begin(n int, owner func(memsim.Addr) memsim.PID) Accumulator {
	return d.BeginReuse(nil, n, owner)
}

// BeginReuse implements ReusingScorer.
func (d DSM) BeginReuse(spare Accumulator, n int, owner func(memsim.Addr) memsim.PID) Accumulator {
	a, ok := spare.(*dsmAccumulator)
	if !ok || a == nil {
		a = &dsmAccumulator{}
	}
	a.reset(d.Name(), n)
	a.owner = owner
	return a
}

// Add implements Accumulator.
func (a *dsmAccumulator) Add(ev memsim.Event) Cost {
	if ev.Kind != memsim.EvAccess {
		return Cost{}
	}
	if !IsRemoteDSM(ev.PID, ev.Acc.Addr, a.owner) {
		return Cost{}
	}
	c := Cost{RMR: true, Messages: 1}
	a.fold(ev.PID, c)
	return c
}

// ccAccumulator streams the CC rule: it carries the simulated cache state
// that the batch Annotate rebuilds on every call. The representation is
// flat — sharer sets are per-address PID bitmasks in one backing array,
// exclusive owners and access counts are per-index slices — so forking a
// node's pricing state is a handful of memcpys into pooled arrays instead
// of a map-by-map deep copy.
type ccAccumulator struct {
	reportState
	cfg CC
	n   int
	// words is the bitmask stride: sharer rows are words uint64s each, one
	// bit per PID. sharers[a*words:(a+1)*words] is address a's sharer set;
	// exclusive[a] is the write-back owner (-1 = none). Rows exist for
	// every address below numAddrs and grow on first caching write.
	words       int
	sharers     []uint64
	exclusive   []int32
	accessCount []int32 // per-PID, empty unless EvictEvery > 0
}

// Begin implements Scorer.
func (c CC) Begin(n int, owner func(memsim.Addr) memsim.PID) Accumulator {
	return c.BeginReuse(nil, n, owner)
}

// BeginReuse implements ReusingScorer: the report and the per-address
// rows start empty in spare's backing arrays, so the rows a run caches
// grow into the capacity the last run left.
func (c CC) BeginReuse(spare Accumulator, n int, owner func(memsim.Addr) memsim.PID) Accumulator {
	a, ok := spare.(*ccAccumulator)
	if !ok || a == nil {
		a = &ccAccumulator{}
	}
	a.reset(c.Name(), n)
	a.cfg = c
	a.n = n
	a.words = (n + 63) / 64
	a.sharers = a.sharers[:0]
	a.exclusive = a.exclusive[:0]
	if c.EvictEvery > 0 {
		a.accessCount = zeroed(a.accessCount, n)
	} else {
		a.accessCount = a.accessCount[:0]
	}
	return a
}

func (a *ccAccumulator) numAddrs() int { return len(a.exclusive) }

// row returns addr's sharer bitmask; addr must be below numAddrs.
func (a *ccAccumulator) row(addr memsim.Addr) []uint64 {
	return a.sharers[int(addr)*a.words : (int(addr)+1)*a.words]
}

// ensure grows the per-address state to cover addr. Reads treat missing
// addresses as uncached without growing; only caching writes extend.
func (a *ccAccumulator) ensure(addr memsim.Addr) {
	for a.numAddrs() <= int(addr) {
		a.sharers = append(a.sharers, make([]uint64, a.words)...)
		a.exclusive = append(a.exclusive, -1)
	}
}

func (a *ccAccumulator) cachedBy(addr memsim.Addr, p memsim.PID) bool {
	if int(addr) >= a.numAddrs() {
		return false
	}
	if a.exclusive[addr] == int32(p) {
		return true
	}
	return a.row(addr)[p/64]&(1<<(p%64)) != 0
}

func (a *ccAccumulator) cache(addr memsim.Addr, p memsim.PID) {
	a.ensure(addr)
	a.row(addr)[p/64] |= 1 << (p % 64)
}

// invalidate destroys all copies held by processes other than p and returns
// the number destroyed.
func (a *ccAccumulator) invalidate(addr memsim.Addr, p memsim.PID) int {
	if int(addr) >= a.numAddrs() {
		return 0
	}
	destroyed := 0
	row := a.row(addr)
	own := uint64(1) << (p % 64)
	for wi := range row {
		w := row[wi]
		if wi == int(p)/64 {
			w &^= own // own copy survives
		}
		destroyed += bits.OnesCount64(w)
		row[wi] &^= w
	}
	if q := a.exclusive[addr]; q >= 0 && q != int32(p) {
		a.exclusive[addr] = -1
		destroyed++
	}
	return destroyed
}

// Add implements Accumulator. This is the single copy of the CC cache
// simulation and pricing rules; the batch CC.Score/Annotate are loops over
// it, and TestAccumulatorMatchesBatch pins the batch/streaming agreement
// on randomized traces.
func (a *ccAccumulator) Add(ev memsim.Event) Cost {
	if ev.Kind != memsim.EvAccess {
		return Cost{}
	}
	p := ev.PID
	addr := ev.Acc.Addr
	if a.cfg.EvictEvery > 0 {
		a.accessCount[p]++
		if int(a.accessCount[p])%a.cfg.EvictEvery == 0 {
			// Spurious whole-cache eviction (preemption, Section 8): clear
			// p's bit in every sharer row and release p's exclusive holds.
			mask := ^(uint64(1) << (p % 64))
			for i := int(p) / 64; i < len(a.sharers); i += a.words {
				a.sharers[i] &= mask
			}
			for w := range a.exclusive {
				if a.exclusive[w] == int32(p) {
					a.exclusive[w] = -1
				}
			}
		}
	}
	isRead := ev.Acc.Op == memsim.OpRead || ev.Acc.Op == memsim.OpLL
	if isRead {
		if a.cachedBy(addr, p) {
			return Cost{} // local cache hit: no RMR, no messages
		}
		c := Cost{RMR: true, Messages: 1} // fetch message
		a.cache(addr, p)
		a.fold(p, c)
		return c
	}
	// Non-read operations engage the interconnect.
	cost := Cost{RMR: true}
	copies := 0
	if int(addr) < a.numAddrs() {
		for _, w := range a.row(addr) {
			copies += bits.OnesCount64(w)
		}
		if a.row(addr)[p/64]&(1<<(p%64)) != 0 {
			copies-- // own copy is updated, not invalidated
		}
		if q := a.exclusive[addr]; q >= 0 && q != int32(p) {
			copies++
		}
	}
	destroyed := 0
	if ev.Res.Wrote || a.cfg.StrictInvalidate {
		destroyed = a.invalidate(addr, p)
	}
	cost.Invalidations = destroyed
	switch a.cfg.Msg {
	case MsgDirectoryIdeal:
		cost.Messages = 1 + destroyed
	case MsgDirectoryLimited:
		if ev.Res.Wrote && copies > a.cfg.Limit {
			cost.Messages = 1 + (a.n - 1) // broadcast invalidation
		} else {
			cost.Messages = 1 + destroyed
		}
	default: // bus, or unset
		cost.Messages = 1
	}
	if ev.Res.Wrote {
		if a.cfg.WriteBack {
			a.ensure(addr)
			a.exclusive[addr] = int32(p)
			a.row(addr)[p/64] &^= 1 << (p % 64)
		} else {
			a.cache(addr, p) // write-through: writer keeps a valid copy
		}
	}
	a.fold(p, cost)
	return cost
}

// StandardScorers returns the four standard model instances (DSM, loose CC,
// write-back CC, ideal-directory CC) as streaming scorers, in that order.
func StandardScorers() []Scorer {
	return []Scorer{ModelDSM, ModelCC, ModelCCWriteBack, ModelCCDirIdeal}
}
