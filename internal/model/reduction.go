package model

// ReductionScorer is an optional capability interface a Scorer may implement
// to authorize state-space reductions in the search stack. The searcher
// maximizes a cost bill, so it may only prune a commuted or PID-permuted
// schedule when the scorer guarantees the pruned schedule could not have been
// billed differently. Scorers that cannot assert a property simply do not
// implement the interface (or return false): both reductions are
// conservatively off.
type ReductionScorer interface {
	Scorer

	// OrderInvariantCost reports whether swapping two adjacent accesses by
	// distinct processes that either touch disjoint addresses or are both
	// read-class accesses to the same address (a) leaves each access's
	// individual RMR verdict unchanged and (b) leaves the scorer's canonical
	// pricing state (AppendModelState) identical after the pair. The
	// guarantee covers the RMR objective only; secondary tallies such as
	// message or invalidation counts may still be order-sensitive.
	OrderInvariantCost() bool

	// PermutationInvariantCost reports whether the pricing rule is invariant
	// under renaming symmetric process IDs together with their owned
	// addresses: the scorer carries no per-process mutable pricing state, and
	// an access's cost depends only on the accessing PID relative to the
	// address's owner. Required before the searcher may merge PID-permuted
	// states in its memo table.
	PermutationInvariantCost() bool
}

// OrderInvariantCost reports whether s asserts the adjacent-commutation
// guarantee documented on ReductionScorer. Scorers that do not implement the
// capability are conservatively order-sensitive.
func OrderInvariantCost(s Scorer) bool {
	r, ok := s.(ReductionScorer)
	return ok && r.OrderInvariantCost()
}

// PermutationInvariantCost reports whether s asserts the PID-renaming
// guarantee documented on ReductionScorer. Scorers that do not implement the
// capability are conservatively permutation-sensitive.
func PermutationInvariantCost(s Scorer) bool {
	r, ok := s.(ReductionScorer)
	return ok && r.PermutationInvariantCost()
}

// DSM pricing is stateless: an access is remote iff the accessing process is
// not the address owner, so both the verdict and the (empty) pricing state are
// trivially order- and permutation-invariant.
func (DSM) OrderInvariantCost() bool       { return true }
func (DSM) PermutationInvariantCost() bool { return true }

// CC pricing is order-invariant for adjacent independent accesses: a process's
// verdict depends only on its own cached copy of the accessed word, capacity
// and EvictEvery evictions are driven by the process's own access count, and
// invalidation is per-address — so a neighbor's access to a different address
// (or a concurrent read of the same address) cannot flip a verdict, and the
// post-pair sharer/exclusive state is identical either way. Message and
// invalidation tallies may differ across orders (whole-cache evictions can
// change how many copies a later write destroys), which is why the guarantee
// is scoped to the RMR objective. The cache encoding is keyed by raw PID, so
// permutation invariance is NOT asserted.
func (CC) OrderInvariantCost() bool       { return true }
func (CC) PermutationInvariantCost() bool { return false }

var (
	_ ReductionScorer = DSM{}
	_ ReductionScorer = CC{}
)
