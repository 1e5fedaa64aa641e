package tensor

import "fmt"

// Im2col/Col2im lower stride-1, zero-padded 2-D convolution to matrix
// multiplication: each output position becomes one column holding the
// receptive-field patch feeding it, so conv forward is a single GEMM of the
// (outC, inC·k·k) weight matrix against the (inC·k·k, h·w) column matrix.
// Interior spans are bulk-copied; only the padded borders are filled
// element-free with explicit zeroing.

func im2colCheck(name string, x, cols []float64, inC, h, w, k, pad int) {
	if inC < 1 || h < 1 || w < 1 || k < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s invalid geometry inC=%d h=%d w=%d k=%d pad=%d",
			name, inC, h, w, k, pad))
	}
	if len(x) < inC*h*w || len(cols) < inC*k*k*h*w {
		panic(fmt.Sprintf("tensor: %s buffers (%d,%d), need (%d,%d)",
			name, len(x), len(cols), inC*h*w, inC*k*k*h*w))
	}
}

// Im2col unrolls the (inC, h, w) feature map x into the (inC·k·k, h·w)
// column matrix cols for a stride-1 convolution with the given zero
// padding (output spatial size equals input size when pad == (k-1)/2).
// Row (ic·k+ky)·k+kx of cols holds, for every output position (oy, ox),
// x[ic, oy+ky-pad, ox+kx-pad], or zero when that index falls outside the
// map.
func Im2col(x []float64, inC, h, w, k, pad int, cols []float64) {
	im2colCheck("Im2col", x, cols, inC, h, w, k, pad)
	hw := h * w
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[r*hw : (r+1)*hw]
				// Output columns whose sampled ix = ox+kx-pad is in range.
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					drow := dst[oy*w : (oy+1)*w]
					if iy < 0 || iy >= h || ox0 >= ox1 {
						clear(drow)
						continue
					}
					clear(drow[:ox0])
					copy(drow[ox0:ox1], xc[iy*w+ox0+kx-pad:iy*w+ox1+kx-pad])
					clear(drow[ox1:])
				}
				r++
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatter-adds the (inC·k·k, h·w)
// column matrix cols back into the (inC, h, w) map x, overwriting x. It
// maps column-matrix gradients back to input-map gradients in the conv
// backward pass.
func Col2im(cols []float64, inC, h, w, k, pad int, x []float64) {
	im2colCheck("Col2im", x, cols, inC, h, w, k, pad)
	hw := h * w
	clear(x[:inC*hw])
	r := 0
	for ic := 0; ic < inC; ic++ {
		xc := x[ic*hw : (ic+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cols[r*hw : (r+1)*hw]
				ox0 := max(0, pad-kx)
				ox1 := min(w, w+pad-kx)
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h || ox0 >= ox1 {
						continue
					}
					srow := src[oy*w+ox0 : oy*w+ox1]
					xrow := xc[iy*w+ox0+kx-pad : iy*w+ox1+kx-pad]
					for j, v := range srow {
						xrow[j] += v
					}
				}
				r++
			}
		}
	}
}
