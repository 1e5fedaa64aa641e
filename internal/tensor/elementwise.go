package tensor

import "math"

// Kernels for the layers between the convolutions: ReLU and its gradient
// mask, the residual add, the conv bias add, BatchNorm's per-plane
// moments, apply and backward, and 2×2 max pooling. Each Go loop below is
// the portable body and the oracle; the amd64 bodies give its bits lane
// for lane, under the same rules as the conv primitives of simd.go.
//
// The elementwise kernels put one element in each lane. The per-plane sums
// (PlaneSums, PlaneMoments, PlaneGradSums) put one plane in each lane,
// four planes per pass, so each plane's sum is still one chain from +0 in
// ascending element order; the vector bodies transpose blocks of the
// planes into registers to get there.
//
// The vector bodies are AVX2 only. AVX-512 bodies of these kernels ran
// the searches no faster end to end, so AVX-512 hosts run the AVX2 ones.
//
// ReLU is Go's max(v, 0): v where v > 0, +0 where v ≤ 0 (−0 included), and
// a NaN with its sign bit cleared. A bare VMAXPD gives −0 or drops the NaN
// depending on operand order, so the vector bodies keep v where "v ≤ 0"
// is false (a NaN compares false) and clear the sign bit.

// vecLen is how many leading elements of an n-element run the vector
// bodies take: whole vectors of four. The Go loops finish the rest.
func vecLen(n int) int {
	if level >= levelAVX2 {
		return n &^ 3
	}
	return 0
}

// ReLU sets dst[i] = max(x[i], 0) for every i of dst; len(x) ≥ len(dst).
func ReLU(dst, x []float64) {
	x = x[:len(dst)]
	if n := vecLen(len(dst)); n > 0 {
		reluAVX2(dst[:n], x[:n])
		dst, x = dst[n:], x[n:]
	}
	for i, v := range x {
		dst[i] = max(v, 0)
	}
}

// ReLUMask sets dst[i] = g[i] where out[i] is not +0 and +0 where it is:
// the ReLU gradient read from the bits of the forward's output, which is
// +0 exactly where the forward did not pass its input.
func ReLUMask(dst, g, out []float64) {
	g, out = g[:len(dst)], out[:len(dst)]
	if n := vecLen(len(dst)); n > 0 {
		reluMaskAVX2(dst[:n], g[:n], out[:n])
		dst, g, out = dst[n:], g[n:], out[n:]
	}
	for i, v := range g {
		dst[i] = reluGrad(v, out[i])
	}
}

// reluGrad is v where o is not +0, else +0, without a branch.
func reluGrad(v, o float64) float64 {
	ob := math.Float64bits(o)
	keep := uint64(int64(ob|-ob) >> 63) // all ones iff o ≠ +0
	return math.Float64frombits(math.Float64bits(v) & keep)
}

// Add sets dst[i] = a[i] + b[i].
func Add(dst, a, b []float64) {
	add(dst, a, b, false)
}

// AddReLU sets dst[i] = max(a[i]+b[i], 0): a residual block's sum and the
// ReLU after it in one pass.
func AddReLU(dst, a, b []float64) {
	add(dst, a, b, true)
}

func add(dst, a, b []float64, relu bool) {
	a, b = a[:len(dst)], b[:len(dst)]
	if n := vecLen(len(dst)); n > 0 {
		addAVX2(dst[:n], a[:n], b[:n], relu)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	if relu {
		for i := range dst {
			dst[i] = max(a[i]+b[i], 0)
		}
		return
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// AddConst adds c to every element of dst: dst[i] = dst[i] + c.
func AddConst(dst []float64, c float64) {
	if n := vecLen(len(dst)); n > 0 {
		addConstAVX2(dst[:n], c)
		dst = dst[n:]
	}
	for i := range dst {
		dst[i] += c
	}
}

// BNApply normalizes one run of elements that share their statistics and
// affine parameters: with h = (x[i]−mu)·inv, it stores h in xhat[i] when
// xhat is not empty, and dst[i] = g·h + beta, through ReLU when relu is
// set. len(x) and a non-empty xhat are at least len(dst).
func BNApply(dst, xhat, x []float64, mu, inv, g, beta float64, relu bool) {
	x = x[:len(dst)]
	if len(xhat) > 0 {
		xhat = xhat[:len(dst)]
	}
	if n := vecLen(len(dst)); n > 0 {
		xh := xhat[:min(n, len(xhat))]
		bnApplyAVX2(dst[:n], xh, x[:n], mu, inv, g, beta, relu)
		dst, x, xhat = dst[n:], x[n:], xhat[len(xh):]
	}
	// Each variant its own loop, so none branches per element.
	switch {
	case len(xhat) > 0 && relu:
		for i, v := range x {
			h := (v - mu) * inv
			xhat[i] = h
			dst[i] = max(g*h+beta, 0)
		}
	case len(xhat) > 0:
		for i, v := range x {
			h := (v - mu) * inv
			xhat[i] = h
			dst[i] = g*h + beta
		}
	case relu:
		for i, v := range x {
			dst[i] = max(g*((v-mu)*inv)+beta, 0)
		}
	default:
		for i, v := range x {
			dst[i] = g*((v-mu)*inv) + beta
		}
	}
}

// BNBackward writes one plane's BatchNorm input gradient,
//
//	dx[i] = k * (fn*dy[i] - sdy - xhat[i]*sdx)
//
// where, when out is not empty, dy[i] is first masked by the ReLU after
// the BatchNorm: it reads +0 where out[i] is +0 (see ReLUMask). sdy and
// sdx are the plane's PlaneGradSums over the same masked dy.
func BNBackward(dx, dy, xhat, out []float64, k, fn, sdy, sdx float64) {
	dy, xhat = dy[:len(dx)], xhat[:len(dx)]
	if len(out) > 0 {
		out = out[:len(dx)]
	}
	if n := vecLen(len(dx)); n > 0 {
		o := out[:min(n, len(out))]
		bnBackwardAVX2(dx[:n], dy[:n], xhat[:n], o, k, fn, sdy, sdx)
		dx, dy, xhat, out = dx[n:], dy[n:], xhat[n:], out[len(o):]
	}
	if len(out) > 0 {
		for i, g := range dy {
			dx[i] = k * (fn*reluGrad(g, out[i]) - sdy - xhat[i]*sdx)
		}
		return
	}
	for i, g := range dy {
		dx[i] = k * (fn*g - sdy - xhat[i]*sdx)
	}
}

// planeVecLen is how many leading elements of each n-element plane a pass
// of the per-plane sums takes over four planes at once; the Go loops
// continue each plane's chain over the rest.
func planeVecLen(n int) int {
	if level >= levelAVX2 {
		return n &^ 3
	}
	return n
}

// PlaneSums sets s[p] to the sum of plane p, the n elements x[p·n:(p+1)·n],
// for every p of s: one chain from +0 in ascending order per plane.
func PlaneSums(x []float64, n int, s []float64) {
	np := len(s)
	x = x[:np*n]
	cnt := planeVecLen(n)
	for q := 0; q < np; q += 4 {
		m := min(4, np-q)
		var acc [4]float64
		if level >= levelAVX2 {
			planeSumsAVX2(x[q*n:], n, cnt, m, &acc)
		} else {
			acc = sum4(fourPlanes(x, n, q, np))
		}
		for j := range m {
			for _, v := range x[(q+j)*n+cnt : (q+j+1)*n] {
				acc[j] += v
			}
		}
		copy(s[q:q+m], acc[:m])
	}
}

// PlaneMoments sets mean[p] and varc[p] for every plane p of the n-element
// planes of x (len(mean) planes, n ≥ 1): the plane's sum in one chain
// from +0, divided by n, then its squared deviations from that mean in
// one chain from +0, divided by n.
func PlaneMoments(x []float64, n int, mean, varc []float64) {
	np := len(mean)
	x, varc = x[:np*n], varc[:np]
	fn := float64(n)
	PlaneSums(x, n, mean)
	for p := range mean {
		mean[p] /= fn
	}
	cnt := planeVecLen(n)
	for q := 0; q < np; q += 4 {
		m := min(4, np-q)
		var mu, acc [4]float64
		copy(mu[:m], mean[q:q+m])
		if level >= levelAVX2 {
			planeSqDevAVX2(x[q*n:], n, cnt, m, &mu, &acc)
		} else {
			acc = sqDev4(fourPlanes(x, n, q, np), &mu)
		}
		for j := range m {
			for _, v := range x[(q+j)*n+cnt : (q+j+1)*n] {
				d := v - mu[j]
				acc[j] += d * d
			}
			varc[q+j] = acc[j] / fn
		}
	}
}

// PlaneGradSums sets sdy[p] = Σdy and sdx[p] = Σdy·xhat over plane p of
// the n-element planes of dy and xhat, each one chain from +0 in ascending
// order. When out is not empty, dy is masked by the ReLU after the
// BatchNorm first, as in BNBackward.
func PlaneGradSums(dy, xhat, out []float64, n int, sdy, sdx []float64) {
	np := len(sdy)
	dy, xhat, sdx = dy[:np*n], xhat[:np*n], sdx[:np]
	if len(out) > 0 {
		out = out[:np*n]
	}
	cnt := planeVecLen(n)
	for q := 0; q < np; q += 4 {
		m := min(4, np-q)
		var a, b [4]float64
		var o []float64
		if len(out) > 0 {
			o = out[q*n:]
		}
		if level >= levelAVX2 {
			planeGradSumsAVX2(dy[q*n:], xhat[q*n:], o, n, cnt, m, &a, &b)
		} else {
			var op [4][]float64
			if len(out) > 0 {
				op = fourPlanes(out, n, q, np)
			}
			a, b = gradSums4(fourPlanes(dy, n, q, np), fourPlanes(xhat, n, q, np), op)
		}
		for j := range m {
			for i := (q+j)*n + cnt; i < (q+j+1)*n; i++ {
				v := dy[i]
				if len(out) > 0 {
					v = reluGrad(v, out[i])
				}
				a[j] += v
				b[j] += v * xhat[i]
			}
		}
		copy(sdy[q:q+m], a[:m])
		copy(sdx[q:q+m], b[:m])
	}
}

// fourPlanes returns planes q..q+3 of the np n-element planes of x. Past
// the last plane it repeats that plane, whose extra results the callers
// discard, so every pass carries four chains.
func fourPlanes(x []float64, n, q, np int) [4][]float64 {
	var p [4][]float64
	for j := range p {
		i := min(q+j, np-1)
		p[j] = x[i*n : (i+1)*n]
	}
	return p
}

// sum4 returns the sums of four equal-length planes, each one chain from
// +0 in ascending order; the four chains share each pass.
func sum4(p [4][]float64) [4]float64 {
	x0 := p[0]
	x1, x2, x3 := p[1][:len(x0)], p[2][:len(x0)], p[3][:len(x0)]
	var s0, s1, s2, s3 float64
	for i := range x0 {
		s0 += x0[i]
		s1 += x1[i]
		s2 += x2[i]
		s3 += x3[i]
	}
	return [4]float64{s0, s1, s2, s3}
}

// sqDev4 returns, for four equal-length planes, the sum of the squared
// deviations of plane j from mu[j], each one chain from +0 in ascending
// order; the four chains share each pass.
func sqDev4(p [4][]float64, mu *[4]float64) [4]float64 {
	x0 := p[0]
	x1, x2, x3 := p[1][:len(x0)], p[2][:len(x0)], p[3][:len(x0)]
	m0, m1, m2, m3 := mu[0], mu[1], mu[2], mu[3]
	var v0, v1, v2, v3 float64
	for i := range x0 {
		d0, d1, d2, d3 := x0[i]-m0, x1[i]-m1, x2[i]-m2, x3[i]-m3
		v0 += d0 * d0
		v1 += d1 * d1
		v2 += d2 * d2
		v3 += d3 * d3
	}
	return [4]float64{v0, v1, v2, v3}
}

// gradSums4 is PlaneGradSums' Go body for four equal-length planes; out's
// planes are nil when there is no ReLU mask. The eight chains share each
// pass.
func gradSums4(dy, xhat, out [4][]float64) (sumDy, sumDyXhat [4]float64) {
	g0 := dy[0]
	n := len(g0)
	g1, g2, g3 := dy[1][:n], dy[2][:n], dy[3][:n]
	h0, h1, h2, h3 := xhat[0][:n], xhat[1][:n], xhat[2][:n], xhat[3][:n]
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	if out[0] == nil {
		for i := range g0 {
			a0 += g0[i]
			b0 += g0[i] * h0[i]
			a1 += g1[i]
			b1 += g1[i] * h1[i]
			a2 += g2[i]
			b2 += g2[i] * h2[i]
			a3 += g3[i]
			b3 += g3[i] * h3[i]
		}
	} else {
		o0, o1, o2, o3 := out[0][:n], out[1][:n], out[2][:n], out[3][:n]
		for i := range g0 {
			v0, v1 := reluGrad(g0[i], o0[i]), reluGrad(g1[i], o1[i])
			v2, v3 := reluGrad(g2[i], o2[i]), reluGrad(g3[i], o3[i])
			a0 += v0
			b0 += v0 * h0[i]
			a1 += v1
			b1 += v1 * h1[i]
			a2 += v2
			b2 += v2 * h2[i]
			a3 += v3
			b3 += v3 * h3[i]
		}
	}
	return [4]float64{a0, a1, a2, a3}, [4]float64{b0, b1, b2, b3}
}

// MaxPoolRow pools one output row of 2×2 windows: output ox reads r0[2ox],
// r0[2ox+1], r1[2ox], r1[2ox+1] in that order, and its maximum is the
// first of them unless a later one compares greater, so the first maximum
// wins ties and a NaN is taken only as the first element. dst receives the
// maxima and, when it is not empty, which the winning positions 0..3. r0
// and r1 hold at least 2·len(dst) elements.
func MaxPoolRow(dst []float64, which []uint8, r0, r1 []float64) {
	n := len(dst)
	r0, r1 = r0[:2*n], r1[:2*n]
	if len(which) > 0 {
		which = which[:n]
	}
	if v := vecLen(n); v > 0 {
		w := which[:min(v, len(which))]
		maxPoolRowAVX2(dst[:v], w, r0[:2*v], r1[:2*v])
		dst, which, r0, r1 = dst[v:], which[len(w):], r0[2*v:], r1[2*v:]
	}
	for ox := range dst {
		v0, v1, v2, v3 := r0[2*ox], r0[2*ox+1], r1[2*ox], r1[2*ox+1]
		best, k := math.Float64bits(v0), uint64(0)
		m := -b2u(v1 > v0) // all ones where v1 takes over
		best ^= (best ^ math.Float64bits(v1)) & m
		k ^= (k ^ 1) & m
		m = -b2u(v2 > math.Float64frombits(best))
		best ^= (best ^ math.Float64bits(v2)) & m
		k ^= (k ^ 2) & m
		m = -b2u(v3 > math.Float64frombits(best))
		best ^= (best ^ math.Float64bits(v3)) & m
		k ^= (k ^ 3) & m
		dst[ox] = math.Float64frombits(best)
		if len(which) > 0 {
			which[ox] = uint8(k)
		}
	}
}

// MaxPoolBackRow is MaxPoolRow's gradient: each window's winning position
// receives +0 + g[ox], its other three positions +0, in the two input
// rows d0 and d1 (at least 2·len(g) elements each).
func MaxPoolBackRow(d0, d1, g []float64, which []uint8) {
	n := len(g)
	d0, d1, which = d0[:2*n], d1[:2*n], which[:n]
	if v := vecLen(n); v > 0 {
		maxPoolBackRowAVX2(d0[:2*v], d1[:2*v], g[:v], which[:v])
		d0, d1, g, which = d0[2*v:], d1[2*v:], g[v:], which[v:]
	}
	for ox, v := range g {
		bits := math.Float64bits(0 + v)
		k := uint64(which[ox])
		d0[2*ox] = math.Float64frombits(bits & -b2u(k == 0))
		d0[2*ox+1] = math.Float64frombits(bits & -b2u(k == 1))
		d1[2*ox] = math.Float64frombits(bits & -b2u(k == 2))
		d1[2*ox+1] = math.Float64frombits(bits & -b2u(k == 3))
	}
}

// b2u is 1 for true and 0 for false; the compiler evaluates it without a
// branch (SETcc), so masks built from it select without one.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}
