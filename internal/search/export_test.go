package search

// LinkID and Link expose the link-id codec to the package's external
// tests.
func (g *Graph) LinkID(a, b int) int { return g.linkID(a, b) }

func (g *Graph) Link(id int) (a, b int, ok bool) { return g.link(id) }

// Loop returns the one-worker driver loop Explore runs p's episodes on.
func (p Placement) Loop(cfg Config) *Loop {
	p.scratch = new(placementScratch)
	s := New(cfg, p)
	return s.driver.NewLoop(0, &episode{s: s}, nil)
}
