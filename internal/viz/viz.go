// Package viz renders topologies and result tables as ASCII (and tables
// as CSV) for the cmd tools, examples and EXPERIMENTS.md.
package viz

import (
	"fmt"
	"strings"

	"routerless/internal/topo"
)

// TopologySummary renders a one-loop-per-line listing with headline
// metrics, the textual equivalent of the paper's topology figures.
func TopologySummary(t *topo.Topology) string {
	var b strings.Builder
	mean, un := t.AverageHops()
	fmt.Fprintf(&b, "%dx%d routerless NoC: %d loops, max overlap %d, avg hops %.3f",
		t.Rows(), t.Cols(), t.NumLoops(), t.MaxOverlap(), mean)
	if un > 0 {
		fmt.Fprintf(&b, " (%d unconnected pairs)", un)
	}
	b.WriteByte('\n')
	for i, l := range t.Loops() {
		fmt.Fprintf(&b, "  loop %2d: %s len=%d\n", i, l, l.Len())
	}
	return b.String()
}

// OverlapGrid draws the per-node loop counts as a grid, showing where the
// wiring budget is spent.
func OverlapGrid(t *topo.Topology) string {
	var b strings.Builder
	for r := 0; r < t.Rows(); r++ {
		for c := 0; c < t.Cols(); c++ {
			fmt.Fprintf(&b, "%3d", t.Overlap(topo.Node{Row: r, Col: c}))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows with aligned columns; the first row is the header.
func Table(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]))
				b.WriteString("  ")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
