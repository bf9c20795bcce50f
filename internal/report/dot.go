package report

import (
	"fmt"
	"io"
	"strings"

	"swarmfuzz/internal/graph"
)

// WriteDOT renders a weighted digraph — typically a Swarm Vulnerability
// Graph — in Graphviz DOT format: node labels are drone indices, edge
// labels carry the influence weights. Output is deterministic (edges in
// ascending (u, v) order) so it can be diffed and tested.
func WriteDOT(w io.Writer, name string, g *graph.Digraph) error {
	if g == nil {
		return fmt.Errorf("report: nil graph")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n")
	for i := 0; i < g.N(); i++ {
		fmt.Fprintf(&b, "  d%d [label=\"drone %d\"];\n", i, i)
	}
	for u := 0; u < g.N(); u++ {
		g.OutNeighbors(u, func(v int, w float64) {
			fmt.Fprintf(&b, "  d%d -> d%d [label=\"%.3f\"];\n", u, v, w)
		})
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
