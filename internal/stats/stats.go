// Package stats provides the small statistical utilities used across the
// simulator, the DRL search, and the benchmark harness: means, standard
// deviations, and saturation detection on latency-vs-injection curves.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Min returns the minimum of xs, or 0 for an empty slice (matching Mean;
// callers that must distinguish "no samples" should check len first).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// CurvePoint is one (injection rate, average latency, accepted throughput)
// sample on a load-latency curve.
type CurvePoint struct {
	InjectionRate float64 // offered, flits/node/cycle
	Latency       float64 // average packet latency, cycles
	Throughput    float64 // accepted, flits/node/cycle
}

// SaturationThroughput estimates the network saturation point from a
// load-latency curve: the throughput at the first point whose latency
// exceeds latencyCap times the zero-load latency (the curve's first
// sample). When no point exceeds the cap, the last point's throughput is
// returned. This mirrors the paper's methodology of sweeping injection
// rates "until the network saturates".
func SaturationThroughput(curve []CurvePoint, latencyCap float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	zeroLoad := curve[0].Latency
	best := 0.0
	for _, p := range curve {
		if p.Latency > latencyCap*zeroLoad {
			return best
		}
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// ZeroLoadLatency returns the latency of the curve's first point, or 0.
func ZeroLoadLatency(curve []CurvePoint) float64 {
	if len(curve) == 0 {
		return 0
	}
	return curve[0].Latency
}
