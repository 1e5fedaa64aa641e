package search_test

import (
	"math/rand"
	"slices"
	"testing"

	"routerless/internal/chiplet"
	"routerless/internal/noc3d"
	"routerless/internal/search"
)

// domains are the §6.8 designs the property tests run on. Each call builds
// a fresh base design whose distance table is not yet built. Both chiplet
// bases start disconnected.
var domains = []struct {
	name  string
	fresh func() *search.Graph
}{
	{"noc3d-4x4x2", func() *search.Graph {
		return noc3d.NewDesign(4, 2, noc3d.Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6}).Graph
	}},
	{"noc3d-3x3x3", func() *search.Graph {
		return noc3d.NewDesign(3, 3, noc3d.Constraints{ExtraPorts: 1, MaxLen: 2, Budget: 5}).Graph
	}},
	{"chiplet-2x2x3", func() *search.Graph { return chiplet.NewDesign(chiplet.DefaultSystem()).Graph }},
	{"chiplet-3x1x2", func() *search.Graph {
		return chiplet.NewDesign(chiplet.System{ChipletsX: 3, ChipletsY: 1, M: 2, BumpPorts: 1, LinkBudget: 4}).Graph
	}},
}

// TestActionsMatchAddLink is a property test over both §6.8 domains:
// along random sequences of legal links, a Placement episode's Actions
// lists, in ascending order, exactly the ids of the pairs that AddLink
// accepts on a clone of its design; Legal holds exactly for the listed
// ids, out-of-range ids and ids of pairs a ≥ b included; Step on any
// other id returns -1 and leaves the design as it was; and Greedy
// proposes a listed id.
func TestActionsMatchAddLink(t *testing.T) {
	for _, d := range domains {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := d.fresh()
			var g *search.Graph
			p := search.Placement{Base: func() *search.Graph { g = base.Clone(); return g }}
			env := p.NewEpisode()
			for step := 0; !env.Done(); step++ {
				actions := env.Actions()
				if !slices.IsSorted(actions) {
					t.Fatalf("%s seed %d step %d: actions not ascending: %v", d.name, seed, step, actions)
				}
				for a := 0; a < g.V(); a++ {
					for b := a + 1; b < g.V(); b++ {
						accepted := g.Clone().AddLink(a, b) == nil
						if listed := slices.Contains(actions, g.LinkID(a, b)); listed != accepted {
							t.Fatalf("%s seed %d step %d: link %d-%d listed=%v, AddLink accepts=%v", d.name, seed, step, a, b, listed, accepted)
						}
					}
				}
				v := g.V()
				for id := -2; id < v*v+2; id++ {
					listed := slices.Contains(actions, id)
					if legal := env.Legal(id); legal != listed {
						a, b, _ := g.Link(id)
						t.Fatalf("%s seed %d step %d: id %d (%d-%d) Legal=%v, listed=%v", d.name, seed, step, id, a, b, legal, listed)
					}
					if listed {
						continue
					}
					fp, links := env.Fingerprint(), len(g.Links())
					if r := env.Step(id); r != -1 || env.Fingerprint() != fp || len(g.Links()) != links {
						t.Fatalf("%s seed %d step %d: illegal id %d rewarded %v and changed the design", d.name, seed, step, id, r)
					}
				}
				greedy, ok := env.Greedy()
				if ok != (len(actions) > 0) || ok && !slices.Contains(actions, greedy) {
					t.Fatalf("%s seed %d step %d: greedy %d (ok=%v) not among %d actions", d.name, seed, step, greedy, ok, len(actions))
				}
				if !ok {
					break
				}
				if r := env.Step(actions[rng.Intn(len(actions))]); r != 0 {
					t.Fatalf("%s seed %d step %d: legal action rewarded %v", d.name, seed, step, r)
				}
			}
		}
	}
}

// TestActionsStrictlyAscending pins the precondition mcts.Tree.Expand
// builds its edge slice on: along random insertions on both §6.8 domains,
// a Placement episode's Actions lists each id once, in strictly ascending
// order, and Priors returns one weight per listed id.
func TestActionsStrictlyAscending(t *testing.T) {
	for _, d := range domains {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			base := d.fresh()
			p := search.Placement{Base: base.Clone}
			env := p.NewEpisode()
			for step := 0; !env.Done(); step++ {
				actions := env.Actions()
				for i := 1; i < len(actions); i++ {
					if actions[i-1] >= actions[i] {
						t.Fatalf("%s seed %d step %d: ids %d then %d", d.name, seed, step, actions[i-1], actions[i])
					}
				}
				if w := env.Priors(actions); len(w) != len(actions) {
					t.Fatalf("%s seed %d step %d: %d priors for %d actions", d.name, seed, step, len(w), len(actions))
				}
				if len(actions) == 0 {
					break
				}
				env.Step(actions[rng.Intn(len(actions))])
			}
		}
	}
}

// TestIncrementalDistancesMatchBFS checks the distance table that each
// insertion updates in place against a BFS over a design rebuilt with the
// same links, after every insertion of random legal sequences on both
// domains, and on a clone taken mid-sequence that then goes its own way.
func TestIncrementalDistancesMatchBFS(t *testing.T) {
	check := func(name string, g *search.Graph, fresh func() *search.Graph) {
		t.Helper()
		ref := fresh()
		for _, l := range g.Links() {
			if err := ref.AddLink(l[0], l[1]); err != nil {
				t.Fatalf("%s: rebuilding: %v", name, err)
			}
		}
		for s := 0; s < g.V(); s++ {
			for u := 0; u < g.V(); u++ {
				if got, want := g.Dist(s, u), ref.Dist(s, u); got != want {
					t.Fatalf("%s after links %v: dist(%d, %d) = %d, BFS gives %d", name, g.Links(), s, u, got, want)
				}
			}
		}
	}
	// addRandom inserts a random legal link and reports whether one was
	// left.
	addRandom := func(g *search.Graph, rng *rand.Rand) bool {
		var legal [][2]int
		for a := 0; a < g.V(); a++ {
			for b := a + 1; b < g.V(); b++ {
				if g.CanAdd(a, b) == nil {
					legal = append(legal, [2]int{a, b})
				}
			}
		}
		if len(legal) == 0 {
			return false
		}
		l := legal[rng.Intn(len(legal))]
		return g.AddLink(l[0], l[1]) == nil
	}
	for _, d := range domains {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := d.fresh()
			g.Dist(0, 0) // build the table, so every insertion updates it
			var clone *search.Graph
			for step := 0; addRandom(g, rng); step++ {
				check(d.name, g, d.fresh)
				if clone != nil && addRandom(clone, rng) {
					check(d.name+" clone", clone, d.fresh)
				}
				if step == 1 {
					clone = g.Clone()
					check(d.name+" clone", clone, d.fresh)
				}
			}
		}
	}
}

// TestEpisodeStepsAllocateNothing pins the per-step calls of a warm
// Placement episode: Legal, Step (legal and illegal) and Greedy allocate
// nothing. Each run plays one step on its own episode.
func TestEpisodeStepsAllocateNothing(t *testing.T) {
	const runs = 20
	base := noc3d.NewDesign(4, 2, noc3d.Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6})
	p := search.Placement{Base: base.Clone}
	envs := make([]search.Environment, runs+1) // AllocsPerRun adds a warm-up run
	for i := range envs {
		envs[i] = p.NewEpisode()
		envs[i].Fingerprint()
	}
	next, failed := 0, false
	allocs := testing.AllocsPerRun(runs, func() {
		env := envs[next]
		next++
		id, ok := env.Greedy()
		if !ok || !env.Legal(id) || env.Step(id) != 0 || env.Legal(id) || env.Step(id) != -1 {
			failed = true
		}
	})
	if failed {
		t.Fatal("a greedy step was not legal exactly once")
	}
	if allocs != 0 {
		t.Fatalf("Greedy + Legal + Step allocate %v times per step, want 0", allocs)
	}
}

// TestPlacementEpisodeAllocBudget pins one warm Placement episode through
// the driver, at explore-generic's noc3d size, ε and step cap: the
// episode's graph clone, the fingerprint strings of the states it visits
// and the tree nodes and edges it adds. The path and returns scratch are
// reused from episode to episode.
func TestPlacementEpisodeAllocBudget(t *testing.T) {
	base := noc3d.NewDesign(6, 2, noc3d.DefaultConstraints(6, 2))
	hops := base.AvgHops()
	p := search.Placement{
		Base:   base.Clone,
		Reward: func(g *search.Graph) float64 { return hops - noc3d.Design{Graph: g}.AvgHops() },
	}
	cfg := search.DefaultConfig()
	cfg.Epsilon, cfg.MaxSteps, cfg.Seed = 0.3, 64, 11
	loop := p.Loop(cfg)
	for range 5 {
		loop.Episode()
	}
	allocs := testing.AllocsPerRun(20, loop.Episode)
	const budget = 26 // 37 before the driver reused the path and returns
	if allocs > budget {
		t.Fatalf("warm Placement episode allocates %.1f times, budget %d", allocs, budget)
	}
}
