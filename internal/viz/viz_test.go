package viz

import (
	"strings"
	"testing"

	"routerless/internal/rec"
	"routerless/internal/topo"
)

func TestTopologySummary(t *testing.T) {
	tp := rec.MustGenerate(4)
	s := TopologySummary(tp)
	if !strings.Contains(s, "4x4 routerless NoC") {
		t.Fatalf("missing header: %q", s)
	}
	if strings.Count(s, "loop") < tp.NumLoops() {
		t.Fatal("not all loops listed")
	}
}

func TestOverlapGrid(t *testing.T) {
	tp := topo.NewSquare(2, 0)
	if err := tp.AddLoop(topo.MustLoop(0, 0, 1, 1, topo.Clockwise)); err != nil {
		t.Fatal(err)
	}
	g := OverlapGrid(tp)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "1") {
		t.Fatalf("grid = %q", g)
	}
}

func TestTableAlignsColumns(t *testing.T) {
	s := Table([][]string{
		{"name", "hops"},
		{"REC", "7.33"},
		{"DRL", "6.22"},
	})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if Table(nil) != "" {
		t.Fatal("empty table should render empty")
	}
}
