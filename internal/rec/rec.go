// Package rec implements the recursive-layering (REC) routerless NoC
// generator of Alazemi et al. (HPCA 2018), the state-of-the-art baseline
// the DRL framework is compared against.
//
// The generator is deterministic and entirely size-driven: for a given
// N×N grid it emits exactly one loop configuration. The published contract
// reproduced here (see DESIGN.md, "REC reconstruction") is:
//
//   - built recursively from a 2×2 single-loop base, adding loops layer by
//     layer from the innermost square outward;
//   - fully connected: every ordered pair of nodes shares at least one loop;
//   - maximum node overlapping exactly 2(N−1), reached at the grid corners,
//     which is why REC cannot be generated under any tighter wiring cap
//     (§6.2 of the DRL paper).
package rec

import (
	"fmt"

	"routerless/internal/topo"
)

// Generate returns the REC topology for an n×n NoC, n >= 2. The result has
// its overlap cap set to 2(n-1), the REC wiring requirement.
func Generate(n int) (*topo.Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("rec: NoC size %d too small (need n >= 2)", n)
	}
	t := topo.NewSquare(n, 0)
	// Layers from the innermost square outward, mirroring the recursive
	// construction: the level with offset o spans rows/cols [o, n-1-o]
	// and has dimension d = n - 2o. Levels with d < 2 contribute nothing
	// (the center node of an odd grid is covered by outer levels).
	for o := (n - 1) / 2; o >= 0; o-- {
		d := n - 2*o
		if d < 2 {
			continue
		}
		addLevel(t, o, d)
	}
	t.SetOverlapCap(2 * (n - 1))
	return t, nil
}

// MustGenerate is Generate that panics on error.
func MustGenerate(n int) *topo.Topology {
	t, err := Generate(n)
	if err != nil {
		panic(err)
	}
	return t
}

// addLevel emits the loop groups for the level square with top-left corner
// (o,o) and dimension d >= 2. Directions alternate within each group so
// both circulations are represented roughly equally.
func addLevel(t *topo.Topology, o, d int) {
	lo, hi := o, o+d-1
	dir := func(i int) topo.Direction {
		if i%2 == 0 {
			return topo.Clockwise
		}
		return topo.Counterclockwise
	}
	i := 0
	add := func(r1, c1, r2, c2 int) {
		l := topo.MustLoop(r1, c1, r2, c2, dir(i))
		i++
		// The construction never produces duplicates or cap violations;
		// an error here indicates a bug, so fail loudly.
		if err := t.AddLoop(l); err != nil {
			panic(fmt.Sprintf("rec: addLevel(%d,%d): %v", o, d, err))
		}
	}
	// Group TL-FH: full-height rectangles anchored at the top-left,
	// widths 2..d (includes the level's full square).
	for j := lo + 1; j <= hi; j++ {
		add(lo, lo, hi, j)
	}
	if d == 2 {
		// The 2×2 base level is a single loop; the remaining groups
		// would duplicate it.
		return
	}
	// Group TL-FW: full-width rectangles anchored at the top-left,
	// heights 2..d-1 (excludes the full square, already added).
	for r := lo + 1; r <= hi-1; r++ {
		add(lo, lo, r, hi)
	}
	// Group BR-FH: full-height rectangles anchored at the bottom-right,
	// widths 2..d-1.
	for j := lo + 1; j <= hi-1; j++ {
		add(lo, j, hi, hi)
	}
	// Group BR-FW: full-width rectangles anchored at the bottom-right,
	// heights 2..d-1.
	for r := lo + 1; r <= hi-1; r++ {
		add(r, lo, hi, hi)
	}
}

// GenerateLite builds the low-wiring variant of the recursive layering:
// per level only the two full-height groups (left-anchored widths 2..d,
// right-anchored widths 2..d-1) are emitted, 2d-3 loops per level. The
// result is fully connected like Generate but reaches a maximum node
// overlapping of roughly N instead of 2(N-1), so it remains buildable
// under wiring caps that REC proper cannot satisfy — the constructive
// fallback the DRL experiments use for tight caps (§6.2's "generate
// feasible designs" capability).
func GenerateLite(n int) (*topo.Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("rec: NoC size %d too small (need n >= 2)", n)
	}
	t := topo.NewSquare(n, 0)
	for o := (n - 1) / 2; o >= 0; o-- {
		d := n - 2*o
		if d < 2 {
			continue
		}
		lo, hi := o, o+d-1
		i := 0
		dir := func() topo.Direction {
			i++
			if i%2 == 1 {
				return topo.Clockwise
			}
			return topo.Counterclockwise
		}
		// Full-height, left-anchored: cols [lo..j].
		for j := lo + 1; j <= hi; j++ {
			if err := t.AddLoop(topo.MustLoop(lo, lo, hi, j, dir())); err != nil {
				panic(fmt.Sprintf("rec: GenerateLite: %v", err))
			}
		}
		// Full-height, right-anchored: cols [j..hi] (excluding the full
		// square, already present).
		for j := lo + 1; j <= hi-1; j++ {
			if err := t.AddLoop(topo.MustLoop(lo, j, hi, hi, dir())); err != nil {
				panic(fmt.Sprintf("rec: GenerateLite: %v", err))
			}
		}
	}
	t.SetOverlapCap(t.MaxOverlap())
	return t, nil
}

// MaxOverlap returns REC's wiring requirement for an n×n NoC: 2(n-1).
// REC cannot be generated under any smaller node-overlapping cap.
func MaxOverlap(n int) int { return 2 * (n - 1) }
