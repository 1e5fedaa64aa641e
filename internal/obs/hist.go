package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a log-scaled (HDR-style) histogram: values are bucketed by
// binary octave with histSub log-linear sub-buckets per octave, so every
// bucket's width is 1/histSub of its lower bound and any quantile is
// reported with bounded relative error (≤ 1/histSub ≈ 3.1%) regardless of
// the value range. No bucket layout is configured up front — one layout
// serves cycle counts, rewards, and occupancies alike, which is what lets
// sim.Run derive p50/p95/p99 from the histogram instead of sorting the
// raw latency slice.
//
// Observe is lock-free: a frexp, two shifts, and three atomic adds.
// Negative values land in a mirrored bucket array and zero (and NaN) in a
// dedicated zero bucket, so reward distributions spanning −1000..30 are
// as accurate as latency distributions.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMinExp  = -25              // smallest distinct frexp exponent (~3e-8)
	histMaxExp  = 39               // largest distinct frexp exponent (~5.5e11)
	histOctaves = histMaxExp - histMinExp + 1
	histLen     = histOctaves * histSub // buckets per sign
)

// histIndex maps v > 0 to its bucket. Out-of-range magnitudes, +Inf
// included, clamp to the end buckets (their counts stay right, their
// bounds saturate).
func histIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1); +Inf gives (+Inf, 0)
	if exp < histMinExp {
		return 0
	}
	if exp > histMaxExp || v > math.MaxFloat64 {
		return histLen - 1
	}
	sub := int((frac - 0.5) * (2 * histSub))
	if sub >= histSub {
		sub = histSub - 1
	}
	return (exp-histMinExp)<<histSubBits | sub
}

// histBounds returns bucket i's [lo, hi) value range.
func histBounds(i int) (lo, hi float64) {
	exp := histMinExp + i>>histSubBits
	sub := i & (histSub - 1)
	lo = math.Ldexp(0.5+float64(sub)/(2*histSub), exp)
	hi = math.Ldexp(0.5+float64(sub+1)/(2*histSub), exp)
	return lo, hi
}

// Histogram counts observations into log-scaled buckets. The zero value is
// not usable — construct with NewHistogram or Registry.Histogram.
type Histogram struct {
	count atomic.Int64
	sum   Gauge
	zero  atomic.Int64
	pos   []atomic.Int64 // histLen buckets for v > 0
	neg   []atomic.Int64 // histLen buckets for v < 0, indexed by |v|
}

// NewHistogram returns an empty histogram, usable standalone (e.g. as a
// run-local accumulator later Merge-d into a registry's histogram).
func NewHistogram() *Histogram {
	return &Histogram{
		pos: make([]atomic.Int64, histLen),
		neg: make([]atomic.Int64, histLen),
	}
}

// Observe records one sample. NaN counts toward Count in the zero bucket
// but is excluded from Sum so Mean stays finite.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	switch {
	case v > 0:
		h.pos[histIndex(v)].Add(1)
		h.sum.Add(v)
	case v < 0:
		h.neg[histIndex(-v)].Add(1)
		h.sum.Add(v)
	default:
		h.zero.Add(1)
	}
	h.count.Add(1)
}

// Merge adds src's buckets into h. Both sides may keep observing
// concurrently; the merge is atomic per bucket, not across the histogram.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	for i := range src.pos {
		if n := src.pos[i].Load(); n != 0 {
			h.pos[i].Add(n)
		}
		if n := src.neg[i].Load(); n != 0 {
			h.neg[i].Add(n)
		}
	}
	if n := src.zero.Load(); n != 0 {
		h.zero.Add(n)
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Value())
}

// Bucket is one non-empty histogram bucket in a snapshot: Count
// observations fell in [Lo, Hi). The zero bucket has Lo == Hi == 0.
type Bucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram: only the
// non-empty buckets, in ascending value order (negatives first).
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// SnapshotHist copies the histogram's current state. Safe concurrently
// with Observe; an empty snapshot on nil.
func (h *Histogram) SnapshotHist() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Value()}
	for i := histLen - 1; i >= 0; i-- {
		if n := h.neg[i].Load(); n != 0 {
			lo, hi := histBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: -hi, Hi: -lo, Count: n})
		}
	}
	if n := h.zero.Load(); n != 0 {
		s.Buckets = append(s.Buckets, Bucket{Count: n})
	}
	for i := 0; i < histLen; i++ {
		if n := h.pos[i].Load(); n != 0 {
			lo, hi := histBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return s
}

// Mean returns the mean of the observations (0 when empty). NaN samples
// are counted as zero.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile returns the q-th quantile (0..1) by linear interpolation inside
// the bucket containing the rank; the bucket width bounds the relative
// error at ≈ 1/32. Returns 0 when the histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	acc := int64(0)
	for _, b := range h.Buckets {
		prev := acc
		acc += b.Count
		if float64(acc) >= rank {
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - float64(prev)) / float64(b.Count)
			}
			return b.Lo + frac*(b.Hi-b.Lo)
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	return last.Hi
}
