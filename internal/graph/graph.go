// Package graph provides the weighted directed graph behind the Swarm
// Vulnerability Graph and its one centrality: PageRank, computed with
// the power method as the paper prescribes.
package graph

import (
	"fmt"
	"math"
)

// Digraph is a weighted directed graph over nodes 0..N-1. Edge weights
// must be positive; parallel edges overwrite.
//
// Edges live in a dense row-major weight matrix where 0 marks a missing
// edge (weights are strictly positive). Every traversal therefore visits
// neighbours in ascending index order, which keeps floating-point sums
// over edges, and so every PageRank score, bit-stable across runs.
type Digraph struct {
	n     int
	w     []float64 // w[u*n+v] is the weight of edge u->v, 0 if absent
	edges int
}

// NewDigraph returns an empty graph with n nodes.
func NewDigraph(n int) *Digraph {
	return &Digraph{n: n, w: make([]float64, n*n)}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// SetEdge adds (or overwrites) the edge u->v with weight w.
func (g *Digraph) SetEdge(u, v int, w float64) error {
	switch {
	case u < 0 || u >= g.n || v < 0 || v >= g.n:
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	case u == v:
		return fmt.Errorf("graph: self-loop on node %d", u)
	case w <= 0 || math.IsNaN(w) || math.IsInf(w, 0):
		return fmt.Errorf("graph: edge (%d,%d) weight %v must be positive and finite", u, v, w)
	}
	if g.w[u*g.n+v] == 0 {
		g.edges++
	}
	g.w[u*g.n+v] = w
	return nil
}

// Weight returns the weight of edge u->v and whether it exists.
func (g *Digraph) Weight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	w := g.w[u*g.n+v]
	return w, w != 0
}

// HasEdge reports whether edge u->v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// NumEdges returns the total edge count.
func (g *Digraph) NumEdges() int { return g.edges }

// OutNeighbors calls fn for every edge u->v with its weight, in
// ascending order of v.
func (g *Digraph) OutNeighbors(u int, fn func(v int, w float64)) {
	for v, w := range g.w[u*g.n : (u+1)*g.n] {
		if w != 0 {
			fn(v, w)
		}
	}
}

// Transpose returns the graph with every edge reversed. SwarmFuzz uses
// the transposed SVG to score potential victim drones.
func (g *Digraph) Transpose() *Digraph {
	t := NewDigraph(g.n)
	t.edges = g.edges
	for u := 0; u < g.n; u++ {
		for v := 0; v < g.n; v++ {
			t.w[v*g.n+u] = g.w[u*g.n+v]
		}
	}
	return t
}

// HasPath reports whether v is reachable from u (including u == v).
func (g *Digraph) HasPath(u, v int) bool {
	if u == v {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb, w := range g.w[cur*g.n : (cur+1)*g.n] {
			if w == 0 || seen[nb] {
				continue
			}
			if nb == v {
				return true
			}
			seen[nb] = true
			stack = append(stack, nb)
		}
	}
	return false
}
