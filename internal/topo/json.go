package topo

import (
	"encoding/json"
	"fmt"
)

// topologyJSON is the on-disk representation used by the cmd tools.
type topologyJSON struct {
	Rows       int        `json:"rows"`
	Cols       int        `json:"cols"`
	OverlapCap int        `json:"overlap_cap,omitempty"`
	Loops      []loopJSON `json:"loops"`
}

type loopJSON struct {
	R1  int    `json:"r1"`
	C1  int    `json:"c1"`
	R2  int    `json:"r2"`
	C2  int    `json:"c2"`
	Dir string `json:"dir"`
}

// MarshalJSON encodes the topology with its loop list.
func (t *Topology) MarshalJSON() ([]byte, error) {
	j := topologyJSON{Rows: t.rows, Cols: t.cols, OverlapCap: t.overlapCap}
	for _, l := range t.loops {
		j.Loops = append(j.Loops, loopJSON{l.R1, l.C1, l.R2, l.C2, l.Dir.String()})
	}
	return json.Marshal(j)
}

// MaxJSONSide bounds the grid sides UnmarshalJSON accepts. It is the
// largest grid the repo explores: Table 2 of the paper runs DRL up to
// 18×18. A Topology allocates O(N²) pairwise state and its grid tables
// O(N²) rectangles for N = rows·cols nodes plus an index over their node
// pairs (about 80 MB at 18×18, kept in a process-wide cache per grid
// shape), so an unchecked side would let a few bytes of JSON exhaust
// memory. nocgen refuses larger sides, so every design it writes decodes.
const MaxJSONSide = 18

// UnmarshalJSON decodes a topology previously written by MarshalJSON. It
// validates what it reads as AddLoop does: every loop must lie within the
// grid and appear once, and the design must respect its overlap cap.
func (t *Topology) UnmarshalJSON(b []byte) error {
	var j topologyJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if j.Rows < 1 || j.Cols < 1 || j.Rows > MaxJSONSide || j.Cols > MaxJSONSide {
		return fmt.Errorf("topo: invalid grid %dx%d (sides must be 1..%d)", j.Rows, j.Cols, MaxJSONSide)
	}
	if j.OverlapCap < 0 {
		return fmt.Errorf("topo: negative overlap cap %d", j.OverlapCap)
	}
	// Loops are added uncapped and the cap checked once at the end, as
	// rec.Generate builds its designs, so the result does not depend on
	// the order the file lists its loops in.
	d := New(j.Rows, j.Cols, 0)
	for _, lj := range j.Loops {
		var dir Direction
		switch lj.Dir {
		case "CW":
			dir = Clockwise
		case "CCW":
			dir = Counterclockwise
		default:
			return fmt.Errorf("topo: unknown direction %q", lj.Dir)
		}
		l, err := NewLoop(lj.R1, lj.C1, lj.R2, lj.C2, dir)
		if err != nil {
			return err
		}
		if err := d.AddLoop(l); err != nil {
			return fmt.Errorf("%w: %v", err, l)
		}
	}
	if j.OverlapCap > 0 && d.MaxOverlap() > j.OverlapCap {
		return fmt.Errorf("topo: design overlap %d exceeds its cap %d", d.MaxOverlap(), j.OverlapCap)
	}
	d.SetOverlapCap(j.OverlapCap)
	*t = *d
	return nil
}
