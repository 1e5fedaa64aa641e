package search_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"routerless/internal/chiplet"
	"routerless/internal/noc3d"
	"routerless/internal/search"
)

// TestActionsMatchAddLink is a property test over both §6.8 domains:
// along random sequences of legal links, a Placement episode's Actions
// lists exactly the pairs that AddLink accepts on a clone of its design,
// and Greedy proposes one of them.
func TestActionsMatchAddLink(t *testing.T) {
	domains := map[string]func() *search.Graph{
		"noc3d-4x4x2":   noc3d.NewDesign(4, 2, noc3d.Constraints{ExtraPorts: 2, MaxLen: 4, Budget: 6}).Clone,
		"noc3d-3x3x3":   noc3d.NewDesign(3, 3, noc3d.Constraints{ExtraPorts: 1, MaxLen: 2, Budget: 5}).Clone,
		"chiplet-2x2x3": chiplet.NewDesign(chiplet.DefaultSystem()).Clone,
		"chiplet-3x1x2": chiplet.NewDesign(chiplet.System{ChipletsX: 3, ChipletsY: 1, M: 2, BumpPorts: 1, LinkBudget: 4}).Clone,
	}
	for name, base := range domains {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var g *search.Graph
			p := search.Placement{Base: func() *search.Graph { g = base(); return g }}
			env := p.NewEpisode()
			for step := 0; !env.Done(); step++ {
				actions := env.Actions()
				for a := 0; a < g.V(); a++ {
					for b := a + 1; b < g.V(); b++ {
						accepted := g.Clone().AddLink(a, b) == nil
						if listed := slices.Contains(actions, fmt.Sprintf("%d-%d", a, b)); listed != accepted {
							t.Fatalf("%s seed %d step %d: link %d-%d listed=%v, AddLink accepts=%v", name, seed, step, a, b, listed, accepted)
						}
					}
				}
				greedy, ok := p.Greedy(env)
				if ok != (len(actions) > 0) || ok && !slices.Contains(actions, greedy) {
					t.Fatalf("%s seed %d step %d: greedy %q (ok=%v) not among %d actions", name, seed, step, greedy, ok, len(actions))
				}
				if !ok {
					break
				}
				if r := env.Step(actions[rng.Intn(len(actions))]); r != 0 {
					t.Fatalf("%s seed %d step %d: legal action rewarded %v", name, seed, step, r)
				}
			}
		}
	}
}
