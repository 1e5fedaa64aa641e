package rec

import (
	"testing"

	"routerless/internal/topo"
)

func TestGenerateRejectsTooSmall(t *testing.T) {
	if _, err := Generate(1); err == nil {
		t.Fatal("Generate(1) should fail")
	}
	if _, err := Generate(0); err == nil {
		t.Fatal("Generate(0) should fail")
	}
}

func TestGenerateBase2x2(t *testing.T) {
	tp := MustGenerate(2)
	if tp.NumLoops() != 1 {
		t.Fatalf("2x2 loops = %d, want 1", tp.NumLoops())
	}
	if !tp.FullyConnected() {
		t.Fatal("2x2 not connected")
	}
}

// The central published contract: REC is fully connected with maximum node
// overlapping exactly 2(N-1) for every size.
func TestGenerateInvariants(t *testing.T) {
	for n := 2; n <= 12; n++ {
		tp := MustGenerate(n)
		if !tp.FullyConnected() {
			t.Errorf("n=%d: not fully connected (%d missing pairs)",
				n, len(tp.UnconnectedPairs(0)))
			continue
		}
		want := 2 * (n - 1)
		if n == 2 {
			want = 1 // single-loop base
		}
		if got := tp.MaxOverlap(); got != want {
			t.Errorf("n=%d: max overlap = %d, want %d", n, got, want)
		}
		if got := tp.NumLoops(); got != LoopCount(n) {
			t.Errorf("n=%d: loops = %d, LoopCount = %d", n, got, LoopCount(n))
		}
	}
}

func TestGenerateOddSizes(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		tp := MustGenerate(n)
		if !tp.FullyConnected() {
			t.Errorf("n=%d: odd grid not fully connected", n)
		}
		if tp.MaxOverlap() > 2*(n-1) {
			t.Errorf("n=%d: overlap %d exceeds 2(n-1)", n, tp.MaxOverlap())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(6)
	b := MustGenerate(6)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("REC generation is not deterministic")
	}
}

// Hop counts should land in the neighbourhood of the published REC values
// (8x8 ≈ 7.3–8.3, 10x10 ≈ 9.6; §3.1 and Tables 3–4 of the DRL paper). The
// reconstruction is not loop-for-loop identical, so allow a band.
func TestGenerateHopCounts(t *testing.T) {
	cases := []struct {
		n        int
		min, max float64
	}{
		{4, 2.5, 5.0},
		{8, 6.0, 9.5},
		{10, 7.5, 11.5},
	}
	for _, c := range cases {
		tp := MustGenerate(c.n)
		mean, un := tp.AverageHops()
		if un != 0 {
			t.Fatalf("n=%d: %d unconnected pairs", c.n, un)
		}
		if mean < c.min || mean > c.max {
			t.Errorf("n=%d: average hops = %.2f, want within [%.1f, %.1f]",
				c.n, mean, c.min, c.max)
		}
		t.Logf("n=%d: loops=%d avgHops=%.3f maxOverlap=%d",
			c.n, tp.NumLoops(), mean, tp.MaxOverlap())
	}
}

// The wiring cap is hit on the grid boundary (REC's outermost layer
// carries the most loops).
func TestMaxOverlapOnBoundary(t *testing.T) {
	tp := MustGenerate(8)
	max := tp.MaxOverlap()
	onBoundary := false
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if tp.Overlap(topo.Node{Row: r, Col: c}) == max {
				if r == 0 || c == 0 || r == 7 || c == 7 {
					onBoundary = true
				}
			}
		}
	}
	if !onBoundary {
		t.Fatalf("max overlap %d not reached on the boundary", max)
	}
}

func TestGenerateLiteInvariants(t *testing.T) {
	for n := 2; n <= 12; n++ {
		tp := MustGenerateLite(n)
		if !tp.FullyConnected() {
			t.Errorf("lite n=%d: not fully connected", n)
			continue
		}
		// The lite variant's whole point: it fits under wiring caps REC
		// proper cannot satisfy.
		if n > 2 && tp.MaxOverlap() >= MaxOverlap(n) {
			t.Errorf("lite n=%d: overlap %d not below REC requirement %d",
				n, tp.MaxOverlap(), MaxOverlap(n))
		}
		full := MustGenerate(n)
		if tp.NumLoops() >= full.NumLoops() && n > 2 {
			t.Errorf("lite n=%d: %d loops not below full REC's %d",
				n, tp.NumLoops(), full.NumLoops())
		}
	}
}

func TestGenerateLiteHopsWorseThanFull(t *testing.T) {
	// Fewer loops cost hops: lite trades performance for wiring.
	for _, n := range []int{6, 8} {
		lite, _ := MustGenerateLite(n).AverageHops()
		full, _ := MustGenerate(n).AverageHops()
		if lite <= full {
			t.Errorf("n=%d: lite hops %.3f not above full %.3f", n, lite, full)
		}
	}
}

func TestGenerateLiteRejectsTooSmall(t *testing.T) {
	if _, err := GenerateLite(1); err == nil {
		t.Fatal("GenerateLite(1) accepted")
	}
}

// Both circulation directions must appear, or zero-load latency suffers.
func TestDirectionsBalanced(t *testing.T) {
	tp := MustGenerate(8)
	cw, ccw := 0, 0
	for _, l := range tp.Loops() {
		if l.Dir == topo.Clockwise {
			cw++
		} else {
			ccw++
		}
	}
	if cw == 0 || ccw == 0 {
		t.Fatalf("unbalanced directions: cw=%d ccw=%d", cw, ccw)
	}
	if cw < ccw/3 || ccw < cw/3 {
		t.Fatalf("strongly unbalanced directions: cw=%d ccw=%d", cw, ccw)
	}
}

// MustGenerateLite is GenerateLite that panics on error.
func MustGenerateLite(n int) *topo.Topology {
	t, err := GenerateLite(n)
	if err != nil {
		panic(err)
	}
	return t
}

// LoopCount returns the number of loops REC generates for an n×n NoC
// without building the topology: sum over levels of (4d-7) for d >= 3,
// plus 1 for a d=2 level.
func LoopCount(n int) int {
	total := 0
	for o := (n - 1) / 2; o >= 0; o-- {
		d := n - 2*o
		switch {
		case d < 2:
		case d == 2:
			total++
		default:
			total += 4*d - 7
		}
	}
	return total
}
