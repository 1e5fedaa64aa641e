package tensor

// Implemented in elementwise_amd64.s. Each body takes whole vectors only:
// every length is a multiple of four, and the per-plane bodies stop each
// plane at cnt, such a multiple.

//go:noescape
func reluAVX2(dst, x []float64)

//go:noescape
func reluMaskAVX2(dst, g, out []float64)

//go:noescape
func addAVX2(dst, a, b []float64, relu bool)

//go:noescape
func addConstAVX2(dst []float64, c float64)

//go:noescape
func bnApplyAVX2(dst, xhat, x []float64, mu, inv, gamma, beta float64, relu bool)

//go:noescape
func bnBackwardAVX2(dx, dy, xhat, out []float64, k, fn, sdy, sdx float64)

//go:noescape
func planeSumsAVX2(x []float64, n, cnt, lanes int, s *[4]float64)

//go:noescape
func planeSqDevAVX2(x []float64, n, cnt, lanes int, mean, s *[4]float64)

//go:noescape
func planeGradSumsAVX2(dy, xhat, out []float64, n, cnt, lanes int, sdy, sdx *[4]float64)

//go:noescape
func maxPoolRowAVX2(dst []float64, which []uint8, r0, r1 []float64)

//go:noescape
func maxPoolBackRowAVX2(d0, d1, g []float64, which []uint8)
