package lowerbound

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
)

// graphOver returns an empty conflict graph whose vertices are vertices,
// over PIDs below n.
func graphOver(n int, vertices ...memsim.PID) *conflictGraph {
	g := newConflictGraph(n)
	g.reset(vertices)
	return g
}

// independentSet runs the greedy choice on g and returns the chosen
// vertices in ascending order.
func independentSet(g *conflictGraph) []memsim.PID {
	g.chooseIndependentSet()
	var out []memsim.PID
	for _, v := range g.vertices {
		if g.in(v) {
			out = append(out, v)
		}
	}
	return out
}

func TestConflictGraphIndependentSetBasic(t *testing.T) {
	g := graphOver(4, 0, 1, 2, 3)
	g.addEdge(0, 1)
	g.addEdge(2, 3)
	is := independentSet(g)
	if len(is) != 2 {
		t.Fatalf("independent set %v, want size 2", is)
	}
	inSet := map[memsim.PID]bool{}
	for _, p := range is {
		inSet[p] = true
	}
	if inSet[0] && inSet[1] || inSet[2] && inSet[3] {
		t.Fatalf("set %v is not independent", is)
	}
}

func TestConflictGraphIgnoresForeignEdges(t *testing.T) {
	g := graphOver(4, 0, 1)
	g.addEdge(0, 3) // 3 is not a vertex
	g.addEdge(0, 7) // 7 is not a PID of the graph
	g.addEdge(0, 0) // self loop
	if g.edges() != 0 {
		t.Fatalf("edges = %d, want 0", g.edges())
	}
	if got := independentSet(g); len(got) != 2 {
		t.Fatalf("independent set %v, want both vertices", got)
	}
}

// TestConflictGraphQuick checks, on random graphs, both independence and
// the Turán guarantee the proof relies on: |IS| >= n/(d+1) where d is the
// average degree.
func TestConflictGraphQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		vertices := make([]memsim.PID, n)
		for i := range vertices {
			vertices[i] = memsim.PID(i)
		}
		g := graphOver(n, vertices...)
		edges := rng.Intn(2 * n)
		for e := 0; e < edges; e++ {
			g.addEdge(memsim.PID(rng.Intn(n)), memsim.PID(rng.Intn(n)))
		}
		is := independentSet(g)
		inSet := map[memsim.PID]bool{}
		for _, p := range is {
			inSet[p] = true
		}
		// Independence.
		for _, p := range is {
			for _, q := range is {
				if g.has(p, q) {
					return false
				}
			}
		}
		// Turán bound with average degree d = 2E/n.
		e := g.edges()
		d := float64(2*e) / float64(n)
		want := float64(n) / (d + 1)
		return float64(len(is)) >= want-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConflictGraphTieBreak: the greedy choice takes the lowest PID among
// the minimum-degree vertices, and a reset graph forgets its old edges.
func TestConflictGraphTieBreak(t *testing.T) {
	g := graphOver(8, 1, 2, 3, 5, 6)
	g.addEdge(1, 2) // degrees: 1, 2, 3 and 5 have 1; 6 has 0
	g.addEdge(3, 5)
	if got := independentSet(g); !slices.Equal(got, []memsim.PID{1, 3, 6}) {
		t.Fatalf("independent set %v, want [1 3 6]", got)
	}
	for p, want := range map[memsim.PID]bool{1: true, 2: false, 3: true, 5: false, 6: true} {
		if g.in(p) != want {
			t.Errorf("in(%d) = %v, want %v", p, g.in(p), want)
		}
	}
	g.reset([]memsim.PID{2, 3, 5})
	g.addEdge(3, 5)
	if g.edges() != 1 || g.has(1, 2) || g.has(2, 1) {
		t.Fatalf("reset graph kept old edges: %d edges", g.edges())
	}
	if got := independentSet(g); !slices.Equal(got, []memsim.PID{2, 3}) {
		t.Fatalf("independent set %v, want [2 3]", got)
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 1 << 20: 1 << 10}
	for x, want := range cases {
		if got := isqrt(x); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", x, got, want)
		}
	}
	if isqrt(-5) != 0 {
		t.Error("isqrt of negative should be 0")
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictExceeded:       "exceeded",
		VerdictSafety:         "safety-violation",
		VerdictNonTerminating: "non-terminating",
		VerdictEvaded:         "evaded",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestClassify(t *testing.T) {
	if classify(memsim.OpRead) != classRead || classify(memsim.OpLL) != classRead {
		t.Error("reads misclassified")
	}
	if classify(memsim.OpWrite) != classWrite {
		t.Error("write misclassified")
	}
	for _, op := range []memsim.Op{memsim.OpCAS, memsim.OpSC, memsim.OpFetchAdd, memsim.OpFetchStore, memsim.OpTestAndSet} {
		if classify(op) != classRMW {
			t.Errorf("%v misclassified", op)
		}
	}
}
