package lowerbound

import (
	"math/bits"

	"repro/internal/memsim"
)

// conflictGraph is an undirected graph over process IDs, used for the two
// conflict-resolution steps of the Part 1 construction (Section 6.2). The
// proof invokes Turán's theorem: a graph with average degree d has an
// independent set of at least n/(d+1) vertices. The classic constructive
// witness is the greedy minimum-degree algorithm implemented here, so the
// code inherits the proof's quantitative guarantee.
//
// All storage is PID-indexed and sized by init for the machine's n
// processes, reusing what a previous run left; reset empties the graph
// for the next use without allocating.
type conflictGraph struct {
	vertices []memsim.PID // ascending
	vertex   []bool       // by PID: in the vertex set
	words    int          // uint64 words per adjacency row
	adj      []uint64     // n rows: bit q of row p is the edge {p, q}
	nedges   int
	// chooseIndependentSet's state and result, by PID.
	deg    []int32
	alive  []bool
	chosen []bool
	remove []memsim.PID
}

// newConflictGraph returns an empty graph over PIDs below n.
func newConflictGraph(n int) *conflictGraph {
	g := new(conflictGraph)
	g.init(n)
	return g
}

// init empties g, with no vertices, over PIDs below n.
func (g *conflictGraph) init(n int) {
	g.words = (n + 63) / 64
	g.vertices = reserve(g.vertices, n)
	g.vertex = zeroed(g.vertex, n)
	g.adj = zeroed(g.adj, n*g.words)
	g.nedges = 0
	g.deg = zeroed(g.deg, n)
	g.alive = zeroed(g.alive, n)
	g.chosen = zeroed(g.chosen, n)
}

// reset empties g and makes vertices, given in ascending order, its
// vertex set.
func (g *conflictGraph) reset(vertices []memsim.PID) {
	for _, v := range g.vertices {
		g.vertex[v] = false
		clear(g.row(v))
	}
	g.vertices = append(g.vertices[:0], vertices...)
	for _, v := range g.vertices {
		g.vertex[v] = true
	}
	g.nedges = 0
}

func (g *conflictGraph) row(p memsim.PID) []uint64 {
	return g.adj[int(p)*g.words : (int(p)+1)*g.words]
}

// has reports whether the edge {p, q} is present.
func (g *conflictGraph) has(p, q memsim.PID) bool {
	return g.row(p)[q/64]&(1<<(q%64)) != 0
}

// addEdge inserts an undirected edge; endpoints outside the vertex set are
// ignored.
func (g *conflictGraph) addEdge(p, q memsim.PID) {
	if p == q || !g.isVertex(p) || !g.isVertex(q) || g.has(p, q) {
		return
	}
	g.row(p)[q/64] |= 1 << (q % 64)
	g.row(q)[p/64] |= 1 << (p % 64)
	g.nedges++
}

func (g *conflictGraph) isVertex(p memsim.PID) bool {
	return p >= 0 && int(p) < len(g.vertex) && g.vertex[p]
}

// edges returns the number of undirected edges.
func (g *conflictGraph) edges() int { return g.nedges }

// neighbours calls f for each neighbour of p, in ascending order.
func (g *conflictGraph) neighbours(p memsim.PID, f func(q memsim.PID)) {
	for i, w := range g.row(p) {
		for ; w != 0; w &= w - 1 {
			f(memsim.PID(i*64 + bits.TrailingZeros64(w)))
		}
	}
}

// chooseIndependentSet computes a maximal independent set by repeatedly
// selecting a minimum-degree vertex and deleting its neighbourhood — the
// greedy procedure achieving Turán's n/(d+1) bound. Ties break toward the
// smallest PID so the construction stays deterministic. in reports
// membership until the next call.
func (g *conflictGraph) chooseIndependentSet() {
	for _, v := range g.vertices {
		deg := int32(0)
		for _, w := range g.row(v) {
			deg += int32(bits.OnesCount64(w))
		}
		g.deg[v], g.alive[v], g.chosen[v] = deg, true, false
	}
	for left := len(g.vertices); left > 0; {
		best := memsim.PID(-1)
		for _, v := range g.vertices {
			if g.alive[v] && (best == -1 || g.deg[v] < g.deg[best]) {
				best = v
			}
		}
		g.chosen[best] = true
		// Remove best and its neighbourhood, then update the degrees of
		// the vertices left.
		g.remove = append(g.remove[:0], best)
		g.neighbours(best, func(q memsim.PID) {
			if g.alive[q] {
				g.remove = append(g.remove, q)
			}
		})
		for _, v := range g.remove {
			g.alive[v] = false
		}
		left -= len(g.remove)
		for _, v := range g.remove {
			g.neighbours(v, func(q memsim.PID) {
				if g.alive[q] {
					g.deg[q]--
				}
			})
		}
	}
}

// in reports whether vertex p is in the set chooseIndependentSet chose.
func (g *conflictGraph) in(p memsim.PID) bool { return g.chosen[p] }
