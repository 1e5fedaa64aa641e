package stats

import (
	"math"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single sample SD != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(got, 2, 1e-12) {
		t.Fatalf("SD = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 {
		t.Fatalf("min = %v", Min(xs))
	}
}

// Empty slices must not panic: like Mean, the order statistics degrade to
// 0 so report rows for searches that found nothing stay printable.
func TestEmptySlicesReturnZero(t *testing.T) {
	if Min(nil) != 0 {
		t.Fatalf("min on empty = %v", Min(nil))
	}
	if Min([]float64{5}) != 5 {
		t.Fatal("single-element min wrong")
	}
}

func TestSaturationThroughput(t *testing.T) {
	curve := []CurvePoint{
		{0.01, 10, 0.01},
		{0.05, 11, 0.05},
		{0.10, 13, 0.10},
		{0.15, 25, 0.14},
		{0.20, 90, 0.14}, // saturated: latency blew past 3x zero-load
	}
	got := SaturationThroughput(curve, 3)
	if got != 0.14 {
		t.Fatalf("saturation = %v, want 0.14 (last pre-saturation point)", got)
	}
}

func TestSaturationNeverExceedsCap(t *testing.T) {
	curve := []CurvePoint{{0.01, 10, 0.01}, {0.05, 12, 0.05}}
	if got := SaturationThroughput(curve, 3); got != 0.05 {
		t.Fatalf("unsaturated curve: %v", got)
	}
	if SaturationThroughput(nil, 3) != 0 {
		t.Fatal("empty curve should return 0")
	}
}

func TestZeroLoadLatency(t *testing.T) {
	if ZeroLoadLatency(nil) != 0 {
		t.Fatal("nil curve")
	}
	if got := ZeroLoadLatency([]CurvePoint{{0.005, 9.9, 0.005}}); got != 9.9 {
		t.Fatalf("zero load = %v", got)
	}
}
