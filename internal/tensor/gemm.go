package tensor

import "fmt"

// MatVecBatch is the Dense-layer kernel of internal/nn. The cache-blocked
// GEMM kernels (GemmNN, GemmNT, GemmTN) and Im2col/Col2im live in this
// package's tests: lowered to im2col + GEMM, a convolution is the
// reference the fused conv kernels are pinned to bit for bit.

// gemmKC is the reduction-panel depth of the lowered GemmNN: it bounds the
// B panel working set (gemmKC × 512 columns × 8 B = 512 KiB worst case,
// L2-resident). ConvFwdPad replicates its panel boundaries exactly.
const gemmKC = 128

func gemmCheck(name string, a, b, c []float64, la, lb, lc int) {
	if len(a) < la || len(b) < lb || len(c) < lc {
		panic(fmt.Sprintf("tensor: %s buffer lengths (%d,%d,%d), need at least (%d,%d,%d)",
			name, len(a), len(b), len(c), la, lb, lc))
	}
}

// MatVecBatch computes Y = X·Aᵀ for a batch of row vectors: A is m×k
// row-major (one weight row per output), X is nb×k (one input row per
// sample), Y is nb×m. Each output element is evaluated with exactly the
// four-accumulator dot product of the lowered GemmNN's n==1 fast path
// (TestMatVecBatchMatchesGemmNN), so each row of Y is independent of nb;
// the output-row-outer/sample-inner nest streams each weight row once
// across the whole batch instead of once per sample.
func MatVecBatch(m, k, nb int, a, x, y []float64) {
	gemmCheck("MatVecBatch", a, x, y, m*k, nb*k, nb*m)
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		for bi := 0; bi < nb; bi++ {
			xrow := x[bi*k : bi*k+k]
			var s0, s1, s2, s3 float64
			kk := 0
			for ; kk+3 < k; kk += 4 {
				s0 += arow[kk] * xrow[kk]
				s1 += arow[kk+1] * xrow[kk+1]
				s2 += arow[kk+2] * xrow[kk+2]
				s3 += arow[kk+3] * xrow[kk+3]
			}
			s := s0 + s1 + s2 + s3
			for ; kk < k; kk++ {
				s += arow[kk] * xrow[kk]
			}
			y[bi*m+i] = s
		}
	}
}
