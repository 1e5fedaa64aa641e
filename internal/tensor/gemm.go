package tensor

import "fmt"

// Cache-blocked f64 GEMM kernels over row-major slices. These back the
// im2col convolution path in internal/nn; all three transpose variants the
// conv forward/backward passes need are provided. The kernels write into
// caller-owned output buffers so steady-state training performs no heap
// allocation.
//
// Blocking: the j (column) dimension is tiled so the C and B panels
// touched by the inner loops stay cache-resident, and the k (reduction)
// dimension is processed in panels of four with an unrolled inner loop, so
// each pass over a C row amortizes four contiguous B rows.

const (
	// gemmNC is the column-panel width: a 512-column f64 panel of C is
	// 4 KiB, comfortably L1-resident alongside the four B rows streamed
	// against it.
	gemmNC = 512
	// gemmKC is the reduction-panel depth bounding the B panel working set
	// (gemmKC × gemmNC × 8 B = 512 KiB worst case, L2-resident).
	gemmKC = 128
)

func gemmCheck(name string, a, b, c []float64, la, lb, lc int) {
	if len(a) < la || len(b) < lb || len(c) < lc {
		panic(fmt.Sprintf("tensor: %s buffer lengths (%d,%d,%d), need at least (%d,%d,%d)",
			name, len(a), len(b), len(c), la, lb, lc))
	}
}

// GemmNN computes C = A·B, or C += A·B when acc is true.
// A is m×k, B is k×n, C is m×n, all row-major.
func GemmNN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmNN", a, b, c, m*k, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Matrix–vector fast path (Dense layers): one four-accumulator
		// dot product per output row instead of width-1 panel sweeps.
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			var s0, s1, s2, s3 float64
			kk := 0
			for ; kk+3 < k; kk += 4 {
				s0 += arow[kk] * b[kk]
				s1 += arow[kk+1] * b[kk+1]
				s2 += arow[kk+2] * b[kk+2]
				s3 += arow[kk+3] * b[kk+3]
			}
			s := s0 + s1 + s2 + s3
			for ; kk < k; kk++ {
				s += arow[kk] * b[kk]
			}
			c[i] += s
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		for k0 := 0; k0 < k; k0 += gemmKC {
			k1 := min(k0+gemmKC, k)
			for i := 0; i < m; i++ {
				arow := a[i*k : i*k+k]
				crow := c[i*n+j0 : i*n+j1]
				kk := k0
				for ; kk+3 < k1; kk += 4 {
					axpy4(crow, arow[kk], arow[kk+1], arow[kk+2], arow[kk+3],
						b[kk*n+j0:], b[(kk+1)*n+j0:], b[(kk+2)*n+j0:], b[(kk+3)*n+j0:])
				}
				for ; kk < k1; kk++ {
					av := arow[kk]
					brow := b[kk*n+j0 : kk*n+j1]
					for j := range crow {
						crow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// MatVecBatch computes Y = X·Aᵀ for a batch of row vectors: A is m×k
// row-major (one weight row per output), X is nb×k (one input row per
// sample), Y is nb×m. Each output element is evaluated with exactly the
// four-accumulator dot product of GemmNN's n==1 matrix–vector fast path,
// so row bi of Y is bit-identical to GemmNN(m, 1, k, a, x_bi, y_bi, false);
// the output-row-outer/sample-inner nest streams each weight row once
// across the whole batch instead of once per sample. This is the batched
// Dense-layer kernel.
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

// GemmNT computes C = A·Bᵀ, or C += A·Bᵀ when acc is true.
// A is m×k, B is n×k (used transposed), C is m×n, all row-major. Each C
// element is a dot product of two contiguous rows, evaluated with four
// independent accumulators.
func GemmNT(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmNT", a, b, c, m*k, n*k, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if k == 1 {
		// Rank-1 update fast path (Dense dW with a single column): a plain
		// outer product, so the inner loop streams b and c contiguously
		// instead of issuing length-1 dot products.
		for i := 0; i < m; i++ {
			av := a[i]
			crow := c[i*n : i*n+n]
			for j, bv := range b[:n] {
				crow[j] += av * bv
			}
		}
		return
	}
	// Panel the B rows so one panel is reused across the whole i sweep;
	// ~256 KiB of B per panel.
	jc := max(4, 32768/k)
	for j0 := 0; j0 < n; j0 += jc {
		j1 := min(j0+jc, n)
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			j := j0
			// Four C elements per A-row pass: the conv dW reductions here
			// have short k (k = H·W after pooling, as low as 16), so the
			// dominant cost is loop setup and A-row traffic, both of which
			// this amortizes 4×.
			for ; j+3 < j1; j += 4 {
				b0 := b[j*k : j*k+k]
				b1 := b[(j+1)*k : (j+1)*k+k]
				b2 := b[(j+2)*k : (j+2)*k+k]
				b3 := b[(j+3)*k : (j+3)*k+k]
				var s0, s1, s2, s3 float64
				for kk, av := range arow {
					s0 += av * b0[kk]
					s1 += av * b1[kk]
					s2 += av * b2[kk]
					s3 += av * b3[kk]
				}
				crow[j] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
			}
			for ; j < j1; j++ {
				brow := b[j*k : j*k+k]
				var s0, s1, s2, s3 float64
				kk := 0
				for ; kk+3 < k; kk += 4 {
					s0 += arow[kk] * brow[kk]
					s1 += arow[kk+1] * brow[kk+1]
					s2 += arow[kk+2] * brow[kk+2]
					s3 += arow[kk+3] * brow[kk+3]
				}
				s := s0 + s1 + s2 + s3
				for ; kk < k; kk++ {
					s += arow[kk] * brow[kk]
				}
				crow[j] += s
			}
		}
	}
}

// GemmNTStrided is GemmNT with explicit row strides: row i of A starts at
// a[i*lda], row j of B at b[j*ldb] (both rows still contiguous and k long);
// C is m×n row-major as in GemmNT. The panel structure and per-element
// accumulator pattern are copied verbatim from GemmNT, so for equal
// (m, n, k) the result is bit-identical to GemmNT on densely packed
// operands — this is what lets the batched conv backward accumulate dW one
// sample at a time, in trajectory order, straight out of the channel-major
// batched gradient and column matrices (row strides nb·h·w and cb·h·w)
// while staying byte-identical to the sequential per-step GemmNT calls.
func GemmNTStrided(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, acc bool) {
	if lda < k || ldb < k {
		panic(fmt.Sprintf("tensor: GemmNTStrided strides (%d,%d) below k=%d", lda, ldb, k))
	}
	gemmCheck("GemmNTStrided", a, b, c, (m-1)*lda+k, (n-1)*ldb+k, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if k == 1 {
		for i := 0; i < m; i++ {
			av := a[i*lda]
			crow := c[i*n : i*n+n]
			for j := range crow {
				crow[j] += av * b[j*ldb]
			}
		}
		return
	}
	jc := max(4, 32768/k)
	for j0 := 0; j0 < n; j0 += jc {
		j1 := min(j0+jc, n)
		for i := 0; i < m; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*n : i*n+n]
			j := j0
			for ; j+3 < j1; j += 4 {
				b0 := b[j*ldb : j*ldb+k]
				b1 := b[(j+1)*ldb : (j+1)*ldb+k]
				b2 := b[(j+2)*ldb : (j+2)*ldb+k]
				b3 := b[(j+3)*ldb : (j+3)*ldb+k]
				var s0, s1, s2, s3 float64
				for kk, av := range arow {
					s0 += av * b0[kk]
					s1 += av * b1[kk]
					s2 += av * b2[kk]
					s3 += av * b3[kk]
				}
				crow[j] += s0
				crow[j+1] += s1
				crow[j+2] += s2
				crow[j+3] += s3
			}
			for ; j < j1; j++ {
				brow := b[j*ldb : j*ldb+k]
				var s0, s1, s2, s3 float64
				kk := 0
				for ; kk+3 < k; kk += 4 {
					s0 += arow[kk] * brow[kk]
					s1 += arow[kk+1] * brow[kk+1]
					s2 += arow[kk+2] * brow[kk+2]
					s3 += arow[kk+3] * brow[kk+3]
				}
				s := s0 + s1 + s2 + s3
				for ; kk < k; kk++ {
					s += arow[kk] * brow[kk]
				}
				crow[j] += s
			}
		}
	}
}

// GemmTN computes C = Aᵀ·B, or C += Aᵀ·B when acc is true.
// A is k×m (used transposed), B is k×n, C is m×n, all row-major. The
// reduction runs over rows of A and B, so the inner loop streams
// contiguous B and C rows; only the four per-panel A loads are strided.
func GemmTN(m, n, k int, a, b, c []float64, acc bool) {
	gemmCheck("GemmTN", a, b, c, k*m, k*n, m*n)
	if !acc {
		clear(c[:m*n])
	}
	if n == 1 {
		// Transposed matrix–vector fast path (Dense dX): accumulate scaled
		// rows of A so every load is contiguous instead of striding down
		// A's columns one element at a time.
		for l := 0; l < k; l++ {
			bv := b[l]
			arow := a[l*m : l*m+m]
			for i, av := range arow {
				c[i] += av * bv
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += gemmNC {
		j1 := min(j0+gemmNC, n)
		l := 0
		for ; l+3 < k; l += 4 {
			b0 := b[l*n+j0 : l*n+j1]
			b1 := b[(l+1)*n+j0 : (l+1)*n+j1]
			b2 := b[(l+2)*n+j0 : (l+2)*n+j1]
			b3 := b[(l+3)*n+j0 : (l+3)*n+j1]
			for i := 0; i < m; i++ {
				a0, a1, a2, a3 := a[l*m+i], a[(l+1)*m+i], a[(l+2)*m+i], a[(l+3)*m+i]
				crow := c[i*n+j0 : i*n+j1]
				for j := range crow {
					crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
		}
		for ; l < k; l++ {
			brow := b[l*n+j0 : l*n+j1]
			for i := 0; i < m; i++ {
				av := a[l*m+i]
				crow := c[i*n+j0 : i*n+j1]
				for j := range crow {
					crow[j] += av * brow[j]
				}
			}
		}
	}
}
