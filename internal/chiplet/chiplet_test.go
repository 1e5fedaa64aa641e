package chiplet

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"routerless/internal/search"
)

func TestCoreIDRoundTrip(t *testing.T) {
	sys := DefaultSystem()
	for id := 0; id < sys.Cores(); id++ {
		if got := sys.ID(sys.CoreFromID(id)); got != id {
			t.Fatalf("id %d round-trips to %d", id, got)
		}
	}
}

func TestBaseSystemDisconnected(t *testing.T) {
	d := NewDesign(DefaultSystem())
	if d.Connected() {
		t.Fatal("chiplets connected without interposer links")
	}
	// Intra-chiplet routing works.
	sys := d.Sys
	a := sys.ID(Core{CX: 0, CY: 0, X: 0, Y: 0})
	b := sys.ID(Core{CX: 0, CY: 0, X: 2, Y: 2})
	if d.Dist(a, b) != 4 {
		t.Fatalf("intra-chiplet distance = %d, want 4", d.Dist(a, b))
	}
}

func TestCanAddRules(t *testing.T) {
	sys := DefaultSystem()
	d := NewDesign(sys)
	interior := sys.ID(Core{CX: 0, CY: 0, X: 1, Y: 1})
	edgeA := sys.ID(Core{CX: 0, CY: 0, X: 2, Y: 1})
	edgeB := sys.ID(Core{CX: 1, CY: 0, X: 0, Y: 1})
	sameChip := sys.ID(Core{CX: 0, CY: 0, X: 0, Y: 1})

	if err := d.AddLink(interior, edgeB); err == nil {
		t.Fatal("interior core accepted as bump")
	}
	if err := d.AddLink(edgeA, sameChip); err == nil {
		t.Fatal("same-chiplet interposer link accepted")
	}
	if err := d.AddLink(edgeA, edgeB); err != nil {
		t.Fatal(err)
	}
	if err := d.AddLink(edgeA, edgeB); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestBumpPortCap(t *testing.T) {
	sys := DefaultSystem()
	sys.BumpPorts = 1
	d := NewDesign(sys)
	a := sys.ID(Core{CX: 0, CY: 0, X: 2, Y: 1})
	b := sys.ID(Core{CX: 1, CY: 0, X: 0, Y: 1})
	c := sys.ID(Core{CX: 1, CY: 0, X: 0, Y: 2})
	if err := d.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.AddLink(a, c); err == nil {
		t.Fatal("bump cap not enforced")
	}
}

func TestLinkBudget(t *testing.T) {
	sys := DefaultSystem()
	sys.LinkBudget = 1
	d := NewDesign(sys)
	a := sys.ID(Core{CX: 0, CY: 0, X: 2, Y: 1})
	b := sys.ID(Core{CX: 1, CY: 0, X: 0, Y: 1})
	if err := d.AddLink(a, b); err != nil {
		t.Fatal(err)
	}
	c := sys.ID(Core{CX: 0, CY: 0, X: 2, Y: 2})
	e := sys.ID(Core{CX: 1, CY: 0, X: 0, Y: 2})
	if err := d.AddLink(c, e); err == nil {
		t.Fatal("budget not enforced")
	}
}

func TestExploreConnectsPackage(t *testing.T) {
	cfg := search.DefaultConfig()
	cfg.Episodes = 10
	cfg.Epsilon = 0.4
	cfg.MaxSteps = 32
	cfg.Seed = 2
	best, res := Explore(DefaultSystem(), cfg)
	if best == nil {
		t.Fatal("no design found")
	}
	if !best.Connected() {
		t.Fatal("best design leaves chiplets unreachable")
	}
	if len(best.Links()) > DefaultSystem().LinkBudget {
		t.Fatalf("budget exceeded: %d links", len(best.Links()))
	}
	if res.Best.Final >= 0 {
		t.Fatalf("reward should be negative avg hops, got %v", res.Best.Final)
	}
	avg := best.AvgInterChipletHops(1000)
	if avg <= 0 || avg > 12 {
		t.Fatalf("implausible inter-chiplet hops %v", avg)
	}
}

func TestGreedyBridgesDisconnectedFirst(t *testing.T) {
	prob := search.Placement{Base: NewDesign(DefaultSystem()).Clone}
	e := prob.NewEpisode()
	a, ok := e.Greedy()
	if !ok {
		t.Fatal("no greedy action on blank package")
	}
	if e.Step(a) != 0 {
		t.Fatal("greedy proposed an illegal link")
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
	for seed := int64(1); seed <= 4; seed++ {
		for _, eps := range []float64{0, 0.3, 1} {
			cfg := search.DefaultConfig()
			cfg.Episodes, cfg.Epsilon, cfg.MaxSteps, cfg.Seed = 12, eps, 32, seed
			best, res := Explore(DefaultSystem(), cfg)
			exploreDigest(h, best, res)
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "c0b62acc2875e7e2"; got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
}
