package search

import (
	"encoding/binary"

	"repro/internal/memsim"
	"repro/internal/model"
)

// Partial-order and symmetry reduction for the exhaustive searcher
// (Config.Reduce).
//
// The searcher maximizes a cost bill, so a reduction may only prune a
// schedule whose bill is provably equal to a schedule it keeps. Sleep-set
// commutation pruning therefore runs only when the cost model asserts
// model.OrderInvariantCost — swapping two adjacent independent accesses
// changes neither verdict nor canonical pricing state — and symmetry
// canonicalization additionally requires model.PermutationInvariantCost
// (the DSM model asserts both; the CC models only order-invariance, so
// under CC the reduction is sleep sets alone). Models without the
// capability leave the reduction conservatively off.
//
// Unlike the explorer there is no specification monitor riding the search:
// costs are a function of the access sequence alone, so the independence
// oracle is purely memory-structural — call starts commute with
// everything (a start touches only its own process and feeds the
// accumulator nothing), and two steps commute when they touch disjoint
// addresses or are both read-class on the same address.
//
// The price of reduction is the witness guarantee: skipped schedules can
// include the lexicographically least worst-case schedule, and a memoized
// tail's choice indices are only meaningful at the concrete representative
// that computed them (a PID-permuted arrival settles a permuted choice
// list). Reduced entries therefore publish cost only (nil tails), and the
// witness is reconstructed after the search by descending the memo table
// from the root (see reconstructWitness in exhaustive.go); it replays to
// exactly WorstCost but is not lexicographically least.

// reduction is the per-hunter reduction state: the validated symmetry of
// the hunter's engine, pre-built normalization closures, and reusable
// block scratch. A nil *reduction keeps the plain search byte-identical.
type reduction struct {
	e   *sengine
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
	// stateKey computed last: members of sorted groups rank by their
	// block's position in the group's canonical order, everything else by
	// PID. The sleep recurrence orders siblings by rank, which makes it
	// equivariant under the PID permutations the symmetry reduction merges
	// — raw PID order is not, and would make the visit set (and every
	// counter) depend on which permuted representative claimed a canonical
	// state first.
	rank []int32
}

// newReduction builds the reduction state for e under cfg.Model's
// capabilities: sleep sets when the model asserts order-invariant costs,
// symmetry when it additionally asserts permutation-invariant costs.
// Returns nil when neither applies (the caller falls back to the plain
// engine).
func newReduction(e *sengine, scorer model.Scorer) *reduction {
	r := &reduction{e: e, por: model.OrderInvariantCost(scorer) && e.n <= 64}
	if model.PermutationInvariantCost(scorer) {
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
	if !r.por && r.sym == nil {
		return nil
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

// readClass reports whether op never modifies the accessed word or any
// other process's reservation: plain reads, and LL (which only [re]sets
// the acting process's own link).
func readClass(op memsim.Op) bool {
	return op == memsim.OpRead || op == memsim.OpLL
}

// indepAfterApply reports whether u's enabled choice at the parent node
// commutes with the just-applied choice c: applying them in either order
// (settling between and after) reaches the same canonical state, prices
// identically under an order-invariant model, and leaves u enabled. Must
// be called immediately after e.apply(c) and before the child settles;
// cAcc is c's pending access captured before the apply consumed it
// (unused when c is a start).
//
// The search has no specification monitor, so only memory structure
// matters: a call start touches its own process alone and contributes
// nothing to the bill, hence commutes with everything; two steps commute
// when they touch disjoint addresses or are both read-class on the same
// address (the exact pair classes model.OrderInvariantCost covers).
func (e *sengine) indepAfterApply(u, c choice, cAcc memsim.Access) bool {
	// Fault choices are conservatively dependent with everything: a crash
	// rewinds scheduler bookkeeping and (under VolOwned) rewrites a whole
	// module, and a lost CAS decouples the memory effect from the frame's
	// observation — neither commutes by the step-local rules below.
	if u.fault != memsim.FaultNone || c.fault != memsim.FaultNone {
		return false
	}
	if c.start || u.start {
		return true
	}
	uAcc := e.pending[u.pid]
	if uAcc.Addr != cAcc.Addr {
		return true
	}
	return readClass(uAcc.Op) && readClass(cAcc.Op)
}

// rankOf is the canonical position of p at the node stateKey last
// encoded: its block's position within its sorted group, or the raw PID
// outside one. Ranks of distinct processes never collide (group positions
// are offset past every PID).
func (r *reduction) rankOf(p memsim.PID) int32 {
	if r.rank == nil {
		return int32(p)
	}
	return r.rank[p]
}

// earlierMasks fills out[i] with the PID bits of the siblings canonically
// ordered before choices[i]. Sibling order is what the sleep-set
// recurrence means by "earlier", and ranking by canonical position rather
// than raw PID makes the recurrence equivariant under the permutations
// the symmetry reduction merges: permuted representatives of one
// canonical state then expand isomorphic subtrees, so the memoized costs
// and every reduction counter stay deterministic no matter which
// representative claims first. Must run after stateKey at the same node
// (stateKey sets the ranks); the result is captured per node because
// child recursions overwrite the rank scratch.
func (r *reduction) earlierMasks(choices []choice, out []uint64) {
	for i, c := range choices {
		ri := r.rankOf(c.pid)
		var m uint64
		for _, u := range choices {
			// A fault sibling never contributes its PID bit: putting the
			// bit to sleep would (unsoundly) also skip the pid's ordinary
			// step choice, which shares the bit.
			if u.pid != c.pid && u.fault == memsim.FaultNone && r.rankOf(u.pid) < ri {
				m |= 1 << uint(u.pid)
			}
		}
		out[i] = m
	}
}

// childSleep computes the sleep set for the child reached by applying
// choices[idx]: of the processes asleep at the parent plus the
// canonically earlier siblings (earlier = earlierMasks(...)[idx];
// explored or memoized elsewhere), keep those whose choice commutes with
// the applied one. Must be called immediately after e.apply(choices[idx]).
func (r *reduction) childSleep(sleep, earlier uint64, choices []choice, idx int, cAcc memsim.Access) uint64 {
	c := choices[idx]
	if c.fault != memsim.FaultNone {
		// A fault drains the sleep set: it is dependent with every
		// sibling (see indepAfterApply), so nothing stays asleep below it.
		return 0
	}
	cur := sleep | earlier
	if cur == 0 {
		return 0
	}
	var out uint64
	for _, u := range choices {
		if u.pid == c.pid {
			continue
		}
		bit := uint64(1) << uint(u.pid)
		if cur&bit == 0 {
			continue
		}
		if r.e.indepAfterApply(u, c, cAcc) {
			out |= bit
		}
	}
	return out
}

// sleepRecompute advances a prefix-replay sleep set across one replayed
// step, mirroring childSleep's effect during dfs. Tasks stay bare []int
// prefixes: a thief (or a unit worker) recomputes the subtree root's
// sleep set deterministically from the indices alone, recomputing each
// node's key on the way down to refresh the canonical ranks.
func (r *reduction) sleepRecompute(sleep, earlier uint64, choices []choice, idx int, cAcc memsim.Access) uint64 {
	if !r.por {
		return 0
	}
	return r.childSleep(sleep, earlier, choices, idx, cAcc)
}

// sortable reports whether group gi can be sorted at the current state:
// groups with per-member addresses additionally require every scripted
// process outside the group to be finished (idle with its script
// exhausted), because an in-flight outsider's frame may reference
// members' rows by concrete address.
func (r *reduction) sortable(gi int, g memsim.SymGroup) bool {
	e := r.e
	if g.K > 0 {
		for pid := 0; pid < e.n; pid++ {
			p := memsim.PID(pid)
			if e.scripts[p] == nil || r.sym.MemberGroup(p) == gi {
				continue
			}
			if e.phase[p] != sIdle || e.progress[p] < len(e.scripts[p]) {
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

// memberBlock appends member mi of group gi's canonical per-member block
// to dst: sleep bit, scheduler state, pending access, LL reservation, the
// member's private row values, and its frame — every address normalized
// to column tokens via the group's norm closure. ok=false means the
// member's state references an address the normalization cannot rewrite
// (the group must degrade to identity at this state).
func (r *reduction) memberBlock(dst []byte, gi, mi int, g memsim.SymGroup, sleep uint64) ([]byte, bool) {
	e := r.e
	p := g.Members[mi]
	norm := r.norms[gi][mi]
	dst = append(dst, boolBit(sleep&(1<<uint(p)) != 0))
	kind := memsim.CallKind(0)
	if e.phase[p] != sIdle {
		kind = e.kinds[p]
	}
	dst = append(dst, byte(e.phase[p]), byte(kind))
	dst = binary.AppendUvarint(dst, uint64(e.progress[p]))
	if e.phase[p] == sPending {
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
func (r *reduction) onlyAddressFreeSorted() bool {
	for gi, g := range r.sym.Groups() {
		if r.sortedMask&(1<<uint(gi)) != 0 && g.K > 0 {
			return false
		}
	}
	return true
}

// stateKey builds the reduced canonical key for the engine's current
// post-settle state: the sorted-mask prefix, machine words outside sorted
// rows, LL reservations of processes outside sorted groups, per-process
// sections (with sleep bits) for processes outside sorted groups, the
// sorted member blocks of each sorted group, and the model's canonical
// pricing state (exactly as the plain key appends it; symmetry requires a
// permutation-invariant model, whose pricing state is PID-free by the
// capability contract). As a side effect it refreshes r.rank with each
// process's canonical position at this node (consumed by earlierMasks).
// merged reports whether some sorted group held two distinct member
// blocks — the canonical encoding collapsed a PID-permutation orbit of
// more than one concrete state; the SymmetryMerges signal, deliberately
// invariant under permuting the representative. With no usable symmetry
// the layout degrades to the plain key plus sleep bits (mask 0), so
// partial-order reduction alone still composes with the memo table.
func (r *reduction) stateKey(sleep uint64) (key [16]byte, merged bool) {
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
	// Build member blocks, dropping any group whose member state cannot
	// be normalized at this state. A drop widens the raw-address set the
	// other groups' closures see, so rebuild until the mask is stable.
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
	if e.fp.Enabled() {
		// Fault budget consumed so far; see sengine.stateKey.
		b = binary.AppendUvarint(b, uint64(e.faultsUsed))
	}
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
	for pid := 0; pid < e.n; pid++ {
		p := memsim.PID(pid)
		if e.scripts[p] == nil || inSorted(p) {
			continue
		}
		b = append(b, boolBit(sleep&(1<<uint(p)) != 0))
		kind := memsim.CallKind(0)
		if e.phase[p] != sIdle {
			kind = e.kinds[p]
		}
		b = append(b, byte(e.phase[p]), byte(kind))
		b = binary.AppendUvarint(b, uint64(e.progress[p]))
		if e.phase[p] == sPending {
			acc := e.pending[p]
			b = append(b, byte(acc.Op))
			b = binary.AppendUvarint(b, uint64(acc.Addr))
			b = binary.AppendVarint(b, acc.Arg1)
			b = binary.AppendVarint(b, acc.Arg2)
		}
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
	if app, ok := e.acc.(model.ModelStateAppender); ok {
		b = app.AppendModelState(b)
	} else {
		e.encBuf.Reset()
		e.acc.(model.ModelStateEncoder).EncodeModelState(&e.encBuf)
		b = append(b, e.encBuf.Bytes()...)
	}
	e.keyBuf = b
	return memsim.HashKey128(b), merged
}

// boolBit encodes a flag as one key byte.
func boolBit(v bool) byte {
	if v {
		return 1
	}
	return 0
}
