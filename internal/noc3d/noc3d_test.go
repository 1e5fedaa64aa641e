package noc3d

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"routerless/internal/search"
)

func TestCoordRoundTrip(t *testing.T) {
	n, layers := 4, 3
	for id := 0; id < n*n*layers; id++ {
		c := CoordFromID(id, n)
		if got := c.ID(n, layers); got != id {
			t.Fatalf("id %d round-trips to %d (coord %+v)", id, got, c)
		}
	}
}

func TestBaseMeshHops(t *testing.T) {
	// 2x2x1 is a 2x2 mesh: avg Manhattan distance over ordered pairs.
	d := NewDesign(2, 1, DefaultConstraints(2, 1))
	want := (1.0*8 + 2.0*4) / 12 // 8 pairs at dist 1, 4 diagonal at 2
	if got := d.AvgHops(); got != want {
		t.Fatalf("2x2 avg hops = %v, want %v", got, want)
	}
	// Adding a layer connects vertically.
	d2 := NewDesign(2, 2, DefaultConstraints(2, 2))
	if d2.Hop(0, 7) != 3 {
		t.Fatalf("corner-to-opposite 2x2x2 = %d, want 3", d2.Hop(0, 7))
	}
}

func TestAddLinkConstraints(t *testing.T) {
	cons := Constraints{ExtraPorts: 1, MaxLen: 2, Budget: 2}
	d := NewDesign(4, 1, cons)
	// Too long: (0,0) to (3,3) is distance 6 > 2.
	if err := d.AddLink(0, 15); err == nil {
		t.Fatal("over-length link accepted")
	}
	// Existing mesh link rejected.
	if err := d.AddLink(0, 1); err == nil {
		t.Fatal("duplicate mesh link accepted")
	}
	// Valid diagonal shortcut (0,0)-(1,1): distance 2.
	if err := d.AddLink(0, 5); err != nil {
		t.Fatal(err)
	}
	// Port cap: node 0 already used its one extra port.
	if err := d.AddLink(0, 4+2); err == nil {
		t.Fatal("port cap not enforced")
	}
	// Budget: one more allowed, then exhausted.
	if err := d.AddLink(10, 15); err != nil {
		t.Fatal(err)
	}
	if err := d.AddLink(2, 7); err == nil {
		t.Fatal("budget not enforced")
	}
}

func TestAddLinkReducesHops(t *testing.T) {
	cons := Constraints{ExtraPorts: 2, MaxLen: 6, Budget: 4}
	d := NewDesign(4, 1, cons)
	before := d.AvgHops()
	if err := d.AddLink(0, 15); err != nil {
		t.Fatal(err)
	}
	if after := d.AvgHops(); after >= before {
		t.Fatalf("corner shortcut did not help: %v -> %v", before, after)
	}
	if d.Hop(0, 15) != 1 {
		t.Fatalf("hop(0,15) = %d", d.Hop(0, 15))
	}
}

func TestExploreImprovesOnBaseMesh(t *testing.T) {
	cfg := search.DefaultConfig()
	cfg.Episodes = 8
	cfg.Epsilon = 0.3
	cfg.MaxSteps = 32
	cons := Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6}
	best, base, res := Explore(4, 2, cons, cfg)
	if best == nil {
		t.Fatal("no design found")
	}
	if best.AvgHops() >= base {
		t.Fatalf("explored design %.3f not below base mesh %.3f", best.AvgHops(), base)
	}
	if res.Best.Final <= 0 {
		t.Fatalf("best final reward %v", res.Best.Final)
	}
	// Constraints hold on the returned design.
	for _, l := range best.Links() {
		ca, cb := CoordFromID(l[0], 4), CoordFromID(l[1], 4)
		if Dist3D(ca, cb) > cons.MaxLen {
			t.Fatalf("link %v violates length cap", l)
		}
	}
	if len(best.Links()) > cons.Budget {
		t.Fatalf("budget exceeded: %d links", len(best.Links()))
	}
}

func TestGreedyPicksDistantPair(t *testing.T) {
	d := NewDesign(4, 1, Constraints{ExtraPorts: 2, MaxLen: 6, Budget: 3})
	var g *search.Graph
	prob := search.Placement{Base: func() *search.Graph { g = d.Clone(); return g }}
	env := prob.NewEpisode()
	a, ok := env.Greedy()
	if !ok {
		t.Fatal("no greedy action")
	}
	if r := env.Step(a); r != 0 || len(g.Links()) != 1 {
		t.Fatalf("greedy action %d: reward %v, %d links", a, r, len(g.Links()))
	}
	x, y := g.Links()[0][0], g.Links()[0][1]
	// The most distant pair on a 4x4 mesh is a corner pair at distance 6.
	if d.Hop(x, y) != 6 {
		t.Fatalf("greedy chose pair at distance %d, want 6", d.Hop(x, y))
	}
}

// exploreDigest folds one Explore run into h: every Outcome (Final bits,
// Steps, Episode), the best Outcome, the tree size and the best design's
// links, in order.
func exploreDigest(h hash.Hash64, best *Design, res *search.Result) {
	w := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	for _, o := range append([]search.Outcome{res.Best}, res.Outcomes...) {
		w(math.Float64bits(o.Final))
		w(uint64(o.Steps))
		w(uint64(o.Episode))
	}
	w(uint64(res.TreeSize))
	for _, l := range best.Links() {
		w(uint64(l[0]))
		w(uint64(l[1]))
	}
}

// TestExploreGolden pins same-seed search results byte for byte across
// seeds and ε ∈ {0, 0.3, 1} (pure tree, mixed, pure greedy), so a change
// to the search engine that alters what it visits or finds shows here.
func TestExploreGolden(t *testing.T) {
	h := fnv.New64a()
	cons := Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6}
	for seed := int64(1); seed <= 4; seed++ {
		for _, eps := range []float64{0, 0.3, 1} {
			cfg := search.DefaultConfig()
			cfg.Episodes, cfg.Epsilon, cfg.MaxSteps, cfg.Seed = 12, eps, 32, seed
			best, _, res := Explore(4, 2, cons, cfg)
			exploreDigest(h, best, res)
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "33b34cbd8dff4f10"; got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
}

// Hop returns the shortest-path distance between two nodes.
func (d *Design) Hop(a, b int) int { return d.Dist(a, b) }
