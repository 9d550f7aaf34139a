package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memsim"
)

// Partial-order and symmetry reduction, shared by both engines.
//
// Commutation pruning uses sleep sets: at every expanded node the DFS skips
// children whose process is in the node's sleep set, and the sleep set
// passed into a child keeps exactly the earlier siblings (plus inherited
// sleepers) whose enabled choice commutes with the chosen one. Skipped
// schedules are permutations-by-adjacent-independent-swaps of schedules
// explored elsewhere, so a fold invariant under such swaps is preserved:
// the explorer's Check verdicts (every spec-relevant ordering is a
// dependent pair under its StartCommutes rule), and the searcher's bill
// under a model asserting model.OrderInvariantCost.
//
// Symmetry canonicalization merges PID-permuted states: workloads declare
// interchangeable process roles (memsim.SymmetricInstance), the core
// refines the declared members to script-identical groups, and the state
// key sorts each group's per-member blocks (scheduler state, frames and the
// member's private row of machine words, all with row addresses rewritten
// to canonical column tokens) into byte order before hashing. Two states
// that differ only by permuting members then claim the same table slot.
// Sorting a group with per-member addresses is gated on every scripted
// non-member being finished: an in-flight non-member (e.g. a signaler
// fanning over the rows) holds a frame that names members by concrete
// address, which canonical sorting cannot rewrite. Groups that cannot be
// sorted at a state degrade to the identity encoding for that state,
// recorded in a sorted-mask prefix so degraded and sorted encodings never
// collide.

// Reduction is the per-worker reduction state: the validated symmetry of
// the worker's core, pre-built normalization closures, and reusable block
// scratch. A nil *Reduction is the plain engine: no sleep sets, plain
// keys; every method is safe to call on it.
type Reduction struct {
	e   *Core
	sym *memsim.Symmetry
	por bool // sleep sets active (whole-mask uint64: needs n <= 64)

	// sortedMask is the per-state set of groups being sorted, read at call
	// time by the pre-built norm closures.
	sortedMask uint64
	norms      [][]func(memsim.Addr) (int64, bool) // [group][member]
	blockBufs  [][][]byte                          // [group][member] scratch
	blocks     [][]byte                            // sort scratch
	order      []int                               // sort-order scratch

	// rank is the canonical position of each process at the node whose key
	// StateKey computed last: members of sorted groups rank by their
	// block's position in the group's canonical order, everything else by
	// PID. The sleep recurrence orders siblings by rank, which makes it
	// equivariant under the PID permutations the symmetry reduction merges
	// — raw PID order is not, and would make the visit set (and every
	// counter) depend on which permuted representative claimed a canonical
	// state first.
	rank []int32
}

// NewReduction builds the reduction state for e: sleep sets when por is
// set (and the process count fits the uint64 masks), PID symmetry when
// symmetric is set and the instance declares usable roles.
func NewReduction(e *Core, por, symmetric bool) *Reduction {
	r := &Reduction{e: e, por: por && e.n <= 64}
	if symmetric {
		scripted := func(p memsim.PID) bool { return e.scripts[p] != nil }
		sameScript := func(a, b memsim.PID) bool {
			sa, sb := e.scripts[a], e.scripts[b]
			if len(sa) != len(sb) {
				return false
			}
			for i := range sa {
				if sa[i] != sb[i] {
					return false
				}
			}
			return true
		}
		r.sym = memsim.BuildSymmetry(e.mach, e.inst, e.n, scripted, sameScript)
	}
	if r.sym != nil {
		r.rank = make([]int32, e.n)
		groups := r.sym.Groups()
		maxMembers := 0
		for _, g := range groups {
			if len(g.Members) > maxMembers {
				maxMembers = len(g.Members)
			}
		}
		r.order = make([]int, maxMembers)
		r.norms = make([][]func(memsim.Addr) (int64, bool), len(groups))
		r.blockBufs = make([][][]byte, len(groups))
		for gi, g := range groups {
			r.norms[gi] = make([]func(memsim.Addr) (int64, bool), len(g.Members))
			r.blockBufs[gi] = make([][]byte, len(g.Members))
			for mi := range g.Members {
				r.norms[gi][mi] = r.sym.NormFunc(gi, mi, &r.sortedMask)
			}
		}
	}
	return r
}

// POR reports whether sleep sets are active.
func (r *Reduction) POR() bool { return r != nil && r.por }

// Symmetric reports whether the state key canonicalizes PID symmetry.
func (r *Reduction) Symmetric() bool { return r != nil && r.sym != nil }

// readClass reports whether op never modifies the accessed word or any other
// process's reservation: plain reads, and LL (which only [re]sets the acting
// process's own link).
func readClass(op memsim.Op) bool {
	return op == memsim.OpRead || op == memsim.OpLL
}

// Independent reports whether u's enabled choice at the parent node
// commutes with the just-applied choice c: applying them in either order
// (settling between and after) reaches the same canonical state, folds
// identically and leaves u enabled. It must be called immediately after
// Apply(c) and before the child settles; cAcc is c's pending access
// captured before the apply consumed it (unused when c is a start).
//
//   - Fault choices are dependent with everything: a crash rewinds
//     scheduler bookkeeping and (under VolOwned) rewrites a whole module,
//     and a lost CAS decouples the memory effect from the frame's
//     observation — neither commutes by the step-local rules below.
//   - A pair involving a call start is the policy's StartCommutes.
//   - Two steps commute when they touch disjoint addresses or are both
//     read-class on the same address.
func (e *Core) Independent(u, c Choice, cAcc memsim.Access) bool {
	if u.Fault != memsim.FaultNone || c.Fault != memsim.FaultNone {
		return false
	}
	if c.Start || u.Start {
		return e.pol.StartCommutes(u, c)
	}
	uAcc := e.pending[u.PID]
	if uAcc.Addr != cAcc.Addr {
		return true
	}
	return readClass(uAcc.Op) && readClass(cAcc.Op)
}

// rankOf is the canonical position of p at the node StateKey last encoded:
// its block's position within its sorted group, or the raw PID outside one.
// Ranks of distinct processes never collide (group positions are offset
// past every PID).
func (r *Reduction) rankOf(p memsim.PID) int32 {
	if r.rank == nil {
		return int32(p)
	}
	return r.rank[p]
}

// EarlierMasks fills out[i] with the PID bits of the siblings canonically
// ordered before choices[i] (a no-op without sleep sets). Sibling order is
// what the sleep-set recurrence means by "earlier", and ranking by
// canonical position rather than raw PID makes the recurrence equivariant
// under the permutations the symmetry reduction merges: permuted
// representatives of one canonical state then expand isomorphic subtrees,
// so the visit set and every reduction counter stay deterministic no
// matter which representative claims first. Must run after StateKey at
// the same node (StateKey sets the ranks); the result is captured per
// node because child recursions overwrite the rank scratch.
func (r *Reduction) EarlierMasks(choices []Choice, out *[64]uint64) {
	if !r.POR() {
		return
	}
	for i, c := range choices {
		ri := r.rankOf(c.PID)
		var m uint64
		for _, u := range choices {
			// A fault sibling never contributes its PID bit: putting the
			// bit to sleep would (unsoundly) also skip the pid's ordinary
			// step choice, which shares the bit.
			if u.PID != c.PID && u.Fault == memsim.FaultNone && r.rankOf(u.PID) < ri {
				m |= 1 << uint(u.PID)
			}
		}
		out[i] = m
	}
}

// Asleep reports whether the sleep set prunes c: its process sleeps and c
// is its ordinary step or start. Fault choices never sleep — a sleep bit
// argues about the pid's ordinary step, not about crashing it.
func (r *Reduction) Asleep(c Choice, sleep uint64) bool {
	return r.POR() && c.Fault == memsim.FaultNone && sleep&(1<<uint(c.PID)) != 0
}

// childSleep computes the sleep set for the child reached by applying
// choices[idx]: of the processes asleep at the parent plus the canonically
// earlier siblings (earlier = EarlierMasks(...)[idx]; explored or
// published elsewhere), keep those whose choice commutes with the applied
// one. Must be called immediately after Apply(choices[idx]).
func (r *Reduction) childSleep(sleep, earlier uint64, choices []Choice, idx int, cAcc memsim.Access) uint64 {
	c := choices[idx]
	if c.Fault != memsim.FaultNone {
		// A fault drains the sleep set: it is dependent with every
		// sibling (see Independent), so nothing stays asleep below it.
		return 0
	}
	cur := sleep | earlier
	if cur == 0 {
		return 0
	}
	var out uint64
	for _, u := range choices {
		if u.PID == c.PID {
			continue
		}
		bit := uint64(1) << uint(u.PID)
		if cur&bit == 0 {
			continue
		}
		if r.e.Independent(u, c, cAcc) {
			out |= bit
		}
	}
	return out
}

// Child applies choices[i] at the current node and returns the child's
// sleep set (0 without sleep sets); sleep is the node's own sleep set and
// earlier the masks EarlierMasks filled for it.
func (e *Core) Child(r *Reduction, choices []Choice, i int, sleep uint64, earlier *[64]uint64) (uint64, error) {
	c := choices[i]
	var cAcc memsim.Access
	if !c.Start {
		cAcc = e.pending[c.PID]
	}
	if err := e.Apply(c, i); err != nil {
		return 0, err
	}
	if !r.POR() {
		return 0, nil
	}
	return r.childSleep(sleep, earlier[i], choices, i, cAcc), nil
}

// Descend re-reaches a node from the current one by its choice-index
// prefix — pure positioning, touching no counters — and returns the sleep
// set there, recomputed deterministically from the indices alone (each
// node's key is recomputed on the way down to refresh the canonical
// ranks). Prefixes stay bare []int for it: a thief or a unit worker needs
// nothing else.
func (e *Core) Descend(r *Reduction, prefix []int) (uint64, error) {
	var sleep uint64
	for step, idx := range prefix {
		choices := e.SettleAt(step)
		if idx < 0 || idx >= len(choices) {
			return 0, &PrefixError{Index: idx, Depth: step}
		}
		var earlier [64]uint64
		if r.POR() {
			r.StateKey(sleep)
			r.EarlierMasks(choices, &earlier)
		}
		var err error
		if sleep, err = e.Child(r, choices, idx, sleep, &earlier); err != nil {
			return 0, err
		}
	}
	return sleep, nil
}

// PrefixError reports a prefix index outside its node's choice set.
type PrefixError struct{ Index, Depth int }

func (e *PrefixError) Error() string {
	return fmt.Sprintf("choice %d out of range at depth %d", e.Index, e.Depth)
}

// Key is the state key the walk claims at the current node: the reduced
// key over (state, sleep) under a reduction, the plain key otherwise.
// merged reports a symmetry merge (see StateKey).
func (e *Core) Key(r *Reduction, sleep uint64) (key [16]byte, merged bool) {
	if r == nil {
		return e.StateKey(), false
	}
	return r.StateKey(sleep)
}

// sortable reports whether group gi can be sorted at the current state:
// groups with per-member addresses additionally require every scripted
// process outside the group to be finished (idle with its script exhausted),
// because an in-flight outsider's frame may reference members' rows by
// concrete address.
func (r *Reduction) sortable(gi int, g memsim.SymGroup) bool {
	e := r.e
	if g.K > 0 {
		for pid := 0; pid < e.n; pid++ {
			p := memsim.PID(pid)
			if e.scripts[p] == nil || r.sym.MemberGroup(p) == gi {
				continue
			}
			if e.phase[p] != Idle || e.progress[p] < len(e.scripts[p]) {
				return false
			}
		}
	}
	// An outsider's live LL reservation on a member row likewise pins
	// concrete addresses (it would also be renamed away unsoundly).
	for pid := 0; pid < e.n; pid++ {
		if r.sym.MemberGroup(memsim.PID(pid)) == gi {
			continue
		}
		if addr, ok := e.mach.LLState(memsim.PID(pid)); ok {
			if ag, _, _, isRole := r.sym.RoleAddr(addr); isRole && ag == gi {
				return false
			}
		}
	}
	return true
}

// memberBlock appends member mi of group gi's canonical per-member block to
// dst: sleep bit, scheduler state, pending access, LL reservation, the
// member's private row values, and its frame — every address normalized to
// column tokens via the group's norm closure. ok=false means the member's
// state references an address the normalization cannot rewrite (the group
// must degrade to identity at this state).
func (r *Reduction) memberBlock(dst []byte, gi, mi int, g memsim.SymGroup, sleep uint64) ([]byte, bool) {
	e := r.e
	p := g.Members[mi]
	norm := r.norms[gi][mi]
	dst = append(dst, BoolBit(sleep&(1<<uint(p)) != 0), byte(e.phase[p]))
	dst = e.pol.AppendKeyProc(dst, p)
	dst = binary.AppendUvarint(dst, uint64(e.progress[p]))
	if e.phase[p] == Pending {
		acc := e.pending[p]
		tok, ok := norm(acc.Addr)
		if !ok {
			return dst, false
		}
		dst = append(dst, byte(acc.Op))
		dst = binary.AppendVarint(dst, tok)
		dst = binary.AppendVarint(dst, acc.Arg1)
		dst = binary.AppendVarint(dst, acc.Arg2)
	}
	if addr, ok := e.mach.LLState(p); ok {
		tok, okn := norm(addr)
		if !okn {
			return dst, false
		}
		dst = append(dst, 1)
		dst = binary.AppendVarint(dst, tok)
	} else {
		dst = append(dst, 0)
	}
	for _, a := range g.Rows[mi] {
		dst = binary.AppendVarint(dst, e.mach.Load(a))
	}
	if f := e.frames.Frame(p); f == nil {
		dst = append(dst, 0)
	} else if na, ok := f.(memsim.NormAppender); ok {
		dst = append(dst, 1)
		out, ok := na.AppendStateNorm(dst, norm)
		if !ok {
			return out, false
		}
		dst = out
	} else if r.onlyAddressFreeSorted() {
		// No sorted group owns addresses: the frame's raw encoding already
		// contains no address that sorting would rename.
		dst = append(dst, 1)
		dst = memsim.AppendKeyFrameState(dst, f)
	} else {
		return dst, false
	}
	return dst, true
}

// onlyAddressFreeSorted reports whether every group in the current sorted
// mask has K == 0 (owns no per-member addresses).
func (r *Reduction) onlyAddressFreeSorted() bool {
	for gi, g := range r.sym.Groups() {
		if r.sortedMask&(1<<uint(gi)) != 0 && g.K > 0 {
			return false
		}
	}
	return true
}

// StateKey builds the reduced canonical key for the core's current
// post-settle state: the sorted-mask prefix, machine words outside sorted
// rows, LL reservations of processes outside sorted groups, the policy's
// head, the faults used, per-process sections (with sleep bits) for
// processes outside sorted groups, the sorted member blocks of each
// sorted group, and the policy's tail (a symmetric policy's tail must be
// PID-free). As a side effect it refreshes the canonical ranks at this
// node (consumed by EarlierMasks). merged reports whether some sorted
// group held two distinct member blocks — the canonical encoding
// collapsed a PID-permutation orbit of more than one concrete state; the
// SymmetryMerges signal, deliberately invariant under permuting the
// representative. With no usable symmetry the layout degrades to the
// plain key plus sleep bits (mask 0), so partial-order reduction alone
// still composes with the claim table.
func (r *Reduction) StateKey(sleep uint64) (key [16]byte, merged bool) {
	e := r.e
	var mask uint64
	var groups []memsim.SymGroup
	if r.sym != nil {
		groups = r.sym.Groups()
		for gi, g := range groups {
			if r.sortable(gi, g) {
				mask |= 1 << uint(gi)
			}
		}
	}
	// Build member blocks, dropping any group whose member state cannot be
	// normalized at this state. A drop widens the raw-address set the other
	// groups' closures see, so rebuild until the mask is stable.
	for {
		r.sortedMask = mask
		stable := true
		for gi, g := range groups {
			if mask&(1<<uint(gi)) == 0 {
				continue
			}
			for mi := range g.Members {
				b, ok := r.memberBlock(r.blockBufs[gi][mi][:0], gi, mi, g, sleep)
				r.blockBufs[gi][mi] = b
				if !ok {
					mask &^= 1 << uint(gi)
					stable = false
					break
				}
			}
			if !stable {
				break
			}
		}
		if stable {
			break
		}
	}
	inSorted := func(p memsim.PID) bool {
		if r.sym == nil {
			return false
		}
		g := r.sym.MemberGroup(p)
		return g >= 0 && mask&(1<<uint(g)) != 0
	}
	b := e.keyBuf[:0]
	b = binary.AppendUvarint(b, mask)
	for a := 0; a < e.mach.Size(); a++ {
		if mask != 0 {
			if ag, _, _, isRole := r.sym.RoleAddr(memsim.Addr(a)); isRole && mask&(1<<uint(ag)) != 0 {
				continue
			}
		}
		b = binary.AppendVarint(b, e.mach.Load(memsim.Addr(a)))
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if inSorted(p) {
			continue
		}
		if addr, ok := e.mach.LLState(p); ok {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(addr))
		} else {
			b = append(b, 0)
		}
	}
	b = e.pol.AppendKeyHead(b)
	if e.fp.Enabled() {
		b = binary.AppendUvarint(b, uint64(e.faultsUsed))
	}
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil || inSorted(p) {
			continue
		}
		b = append(b, BoolBit(sleep&(1<<uint(p)) != 0))
		b = e.appendProc(b, p)
		b = memsim.AppendKeyFrameState(b, e.frames.Frame(p))
	}
	if r.rank != nil {
		for pid := range r.rank {
			r.rank[pid] = int32(pid)
		}
	}
	for gi, g := range groups {
		if mask&(1<<uint(gi)) == 0 {
			continue
		}
		r.blocks = r.blocks[:0]
		for mi := range g.Members {
			r.blocks = append(r.blocks, r.blockBufs[gi][mi])
		}
		ord := r.order[:len(r.blocks)]
		if memsim.SortBlockOrder(r.blocks, ord) {
			merged = true
		}
		for pos, mi := range ord {
			r.rank[g.Members[mi]] = int32(e.n + gi*e.n + pos)
		}
		b = memsim.AppendBlocksInOrder(b, r.blocks, ord)
	}
	b = e.pol.AppendKeyTail(b)
	e.keyBuf = b
	return memsim.HashKey128(b), merged
}
