package tensor

import (
	"math/rand"
	"strconv"
	"testing"
)

// MatVecBatch must be bit-identical, per sample, to GemmNN's n==1
// matrix–vector fast path (the kernel Dense.Forward uses).
func TestMatVecBatchMatchesGemmNN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sz := range []struct{ m, k, nb int }{
		{7, 13, 4}, {1, 1, 1}, {32, 50, 8}, {4, 3, 5},
	} {
		t.Run(strconv.Itoa(sz.m)+"x"+strconv.Itoa(sz.k)+"b"+strconv.Itoa(sz.nb), func(t *testing.T) {
			a := make([]float64, sz.m*sz.k)
			x := make([]float64, sz.nb*sz.k)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := make([]float64, sz.nb*sz.m)
			MatVecBatch(sz.m, sz.k, sz.nb, a, x, y)
			want := make([]float64, sz.m)
			for bi := 0; bi < sz.nb; bi++ {
				GemmNN(sz.m, 1, sz.k, a, x[bi*sz.k:(bi+1)*sz.k], want, false)
				for i, v := range want {
					if y[bi*sz.m+i] != v {
						t.Fatalf("sample %d out %d: got %v want %v", bi, i, y[bi*sz.m+i], v)
					}
				}
			}
		})
	}
}
