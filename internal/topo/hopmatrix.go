package topo

// UnconnectedHops returns the sentinel hop value used for unconnected node
// pairs in the state encoding: 5*N for an N×N NoC (§4.2 of the paper).
// For rectangular grids the larger dimension is used.
func UnconnectedHops(rows, cols int) float64 {
	n := rows
	if cols > n {
		n = cols
	}
	return 5 * float64(n)
}

// HopMatrixInto encodes the topology as the paper's state representation: a
// matrix tiled from R×C submatrices, where submatrix (r,c) holds the hop
// count from node (r,c) to every node in the network. Submatrix (sr,sc)
// occupies block row sr and block column sc, so the full matrix is
// (R²)×(C²); for the paper's square N×N NoCs this is the N²×N² hop-count
// matrix fed to the DNN. Unconnected pairs encode as UnconnectedHops; a
// node's distance to itself is 0.
//
// The matrix is row-major with height R² and width C². It is written into
// dst, reallocating only when dst lacks capacity, and the (resliced)
// destination is returned. The matrix is materialized once and maintained
// incrementally by AddLoop, so a call with a large enough dst performs a
// single copy and no allocation.
func (t *Topology) HopMatrixInto(dst []float64) []float64 {
	if t.hopM == nil {
		t.hopM = make([]float64, t.rows*t.rows*t.cols*t.cols)
		t.fillHopM()
	}
	if cap(dst) < len(t.hopM) {
		dst = make([]float64, len(t.hopM))
	}
	dst = dst[:len(t.hopM)]
	copy(dst, t.hopM)
	return dst
}

// fillHopM rebuilds the materialized state matrix from the distance cache.
func (t *Topology) fillHopM() {
	def := UnconnectedHops(t.rows, t.cols)
	for i := range t.hopM {
		t.hopM[i] = def
	}
	n := t.N()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if h := t.dist[s*n+d]; h >= 0 {
				t.setHopM(s, d, float64(h))
			}
		}
	}
}

// setHopM writes one (src, dst) entry of the materialized state matrix.
// The tiling maps source (sr,sc) and destination (dr,dc) to matrix cell
// (sr*R + dr, sc*C + dc).
func (t *Topology) setHopM(src, dst int, v float64) {
	c := t.cols
	row := (src/c)*t.rows + dst/c
	col := (src%c)*c + dst%c
	t.hopM[row*(c*c)+col] = v
}
