package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageRankOptionsValidate(t *testing.T) {
	if err := DefaultPageRankOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []PageRankOptions{
		{Damping: 0, Tol: 1e-9, MaxIter: 10},
		{Damping: 1, Tol: 1e-9, MaxIter: 10},
		{Damping: 0.85, Tol: 0, MaxIter: 10},
		{Damping: 0.85, Tol: 1e-9, MaxIter: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	r, err := PageRank(NewDigraph(0), DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Errorf("empty graph rank = %v, want nil", r)
	}
}

func TestPageRankNoEdgesUniform(t *testing.T) {
	r, err := PageRank(NewDigraph(4), DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r {
		if math.Abs(v-0.25) > 1e-6 {
			t.Errorf("rank[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := NewDigraph(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 2)
	mustEdge(t, g, 2, 0, 0.5)
	mustEdge(t, g, 3, 2, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range r {
		if v <= 0 {
			t.Errorf("non-positive rank %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ranks sum to %v, want 1", sum)
	}
}

func TestPageRankHub(t *testing.T) {
	// Star: everyone links to node 0 — node 0 must dominate.
	g := NewDigraph(5)
	for i := 1; i < 5; i++ {
		mustEdge(t, g, i, 0, 1)
	}
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if r[0] <= r[i] {
			t.Errorf("hub rank %v not above leaf rank %v", r[0], r[i])
		}
	}
}

func TestPageRankWeightSensitivity(t *testing.T) {
	// Node 0 links strongly to 1 and weakly to 2: rank(1) > rank(2).
	g := NewDigraph(3)
	mustEdge(t, g, 0, 1, 10)
	mustEdge(t, g, 0, 2, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r[1] <= r[2] {
		t.Errorf("heavier edge target rank %v not above lighter %v", r[1], r[2])
	}
}

func TestPageRankChainDecay(t *testing.T) {
	// Chain 3->2->1->0: influence accumulates toward the sink.
	g := NewDigraph(4)
	mustEdge(t, g, 3, 2, 1)
	mustEdge(t, g, 2, 1, 1)
	mustEdge(t, g, 1, 0, 1)
	r, err := PageRank(g, DefaultPageRankOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(r[0] > r[1] && r[1] > r[2] && r[2] >= r[3]) {
		t.Errorf("chain ranks not monotone: %v", r)
	}
}

func TestPageRankInvalidOptions(t *testing.T) {
	if _, err := PageRank(NewDigraph(2), PageRankOptions{}); err == nil {
		t.Error("zero-value options accepted")
	}
}

func TestWeightedInDegree(t *testing.T) {
	g := NewDigraph(3)
	mustEdge(t, g, 0, 2, 2)
	mustEdge(t, g, 1, 2, 3)
	mustEdge(t, g, 2, 0, 1)
	deg := WeightedInDegree(g)
	want := []float64{1, 0, 5}
	for i := range want {
		if deg[i] != want[i] {
			t.Errorf("in-degree[%d] = %v, want %v", i, deg[i], want[i])
		}
	}
}

func TestEigenvectorCentralityEmpty(t *testing.T) {
	if got := EigenvectorCentrality(NewDigraph(0), 50, 1e-9); got != nil {
		t.Errorf("empty graph centrality = %v, want nil", got)
	}
	got := EigenvectorCentrality(NewDigraph(3), 50, 1e-9)
	for _, v := range got {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Errorf("no-edge centrality %v, want uniform", got)
			break
		}
	}
}

func TestEigenvectorCentralityCycleUniform(t *testing.T) {
	g := NewDigraph(3)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	mustEdge(t, g, 2, 0, 1)
	got := EigenvectorCentrality(g, 200, 1e-12)
	for i, v := range got {
		if math.Abs(v-1.0/3) > 1e-6 {
			t.Errorf("cycle centrality[%d] = %v, want 1/3", i, v)
		}
	}
}

func TestEigenvectorCentralityHub(t *testing.T) {
	g := NewDigraph(4)
	mustEdge(t, g, 1, 0, 1)
	mustEdge(t, g, 2, 0, 1)
	mustEdge(t, g, 3, 0, 1)
	mustEdge(t, g, 0, 1, 0.5) // keep mass circulating
	got := EigenvectorCentrality(g, 500, 1e-12)
	for i := 2; i < 4; i++ {
		if got[0] <= got[i] {
			t.Errorf("hub centrality %v not above node %d's %v", got[0], i, got[i])
		}
	}
}

func TestPropPageRankDistribution(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		g := NewDigraph(6)
		for _, e := range edges {
			u, v := int(e[0])%6, int(e[1])%6
			if u == v {
				continue
			}
			if err := g.SetEdge(u, v, 1); err != nil {
				return false
			}
		}
		r, err := PageRank(g, DefaultPageRankOptions())
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range r {
			if v <= 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCentralitiesBitStable pins that every centrality is a pure
// function of the graph down to the last bit: repeated calls, and a
// graph built with its edges inserted in another order, give the same
// float64 bit patterns. Summing edge weights in a varying order (as map
// iteration does) breaks this within a handful of calls.
func TestCentralitiesBitStable(t *testing.T) {
	const n = 15
	r := rand.New(rand.NewSource(7))
	type edge struct {
		u, v int
		w    float64
	}
	var edges []edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && r.Float64() < 0.8 {
				edges = append(edges, edge{u, v, r.Float64()*10 + 1e-3})
			}
		}
	}
	build := func(order []int) *Digraph {
		g := NewDigraph(n)
		for _, k := range order {
			mustEdge(t, g, edges[k].u, edges[k].v, edges[k].w)
		}
		return g
	}
	scores := func(g *Digraph) [][]float64 {
		pr, err := PageRank(g, DefaultPageRankOptions())
		if err != nil {
			t.Fatal(err)
		}
		return [][]float64{pr, WeightedInDegree(g), EigenvectorCentrality(g, 200, 1e-12)}
	}
	names := []string{"PageRank", "WeightedInDegree", "EigenvectorCentrality"}
	g := build(r.Perm(len(edges)))
	want := scores(g)
	for rep := 0; rep < 50; rep++ {
		h := g
		if rep%2 == 1 {
			h = build(r.Perm(len(edges)))
		}
		for k, got := range scores(h) {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
					t.Fatalf("repeat %d: %s[%d] = %x, first call gave %x", rep, names[k], i,
						math.Float64bits(got[i]), math.Float64bits(want[k][i]))
				}
			}
		}
	}
}
