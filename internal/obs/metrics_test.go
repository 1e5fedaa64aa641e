package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("flits") != c {
		t.Fatal("counter lookup not idempotent")
	}
	g := r.Gauge("inflight")
	g.Set(3.5)
	g.Add(-1.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestNilRegistryAndMetricsAreNops(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(2)
	h.Observe(1.5)
	h.Merge(NewHistogram())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if hs := h.SnapshotHist(); hs.Count != 0 || len(hs.Buckets) != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	vals := []float64{1, 9, 10, 11, 25, 100}
	for _, v := range vals {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", s.Count, len(vals))
	}
	if want := 1.0 + 9 + 10 + 11 + 25 + 100; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if got := s.Mean(); math.Abs(got-156.0/6) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	// Every value must land in a bucket whose [Lo, Hi) range contains it,
	// buckets must be ascending, and counts must add up.
	var total int64
	for i, b := range s.Buckets {
		total += b.Count
		if b.Hi < b.Lo {
			t.Fatalf("bucket %d: hi %v < lo %v", i, b.Hi, b.Lo)
		}
		if i > 0 && b.Lo < s.Buckets[i-1].Hi-1e-12 {
			t.Fatalf("buckets out of order at %d: %v after %v", i, b.Lo, s.Buckets[i-1].Hi)
		}
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	for _, v := range vals {
		found := false
		for _, b := range s.Buckets {
			if v >= b.Lo && v < b.Hi {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("value %v not covered by any bucket", v)
		}
	}
}

// TestHistogramQuantileBoundedError is the accuracy contract the sim's
// p50/p95/p99 reporting relies on: every quantile of a log-scaled
// histogram is within the bucket relative width (1/32) of the exact
// sample quantile.
func TestHistogramQuantileBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	vals := make([]float64, 20000)
	for i := range vals {
		// Log-uniform over ~5 decades plus a heavy tail, like saturated
		// latency distributions.
		v := math.Exp(rng.Float64()*11) * 0.05
		vals[i] = v
		h.Observe(v)
	}
	sort.Float64s(vals)
	s := h.SnapshotHist()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := s.Quantile(q)
		// One bucket width of slack on top of the 1/histSub contract for
		// the sample-vs-interpolated rank difference at the tails.
		if rel := math.Abs(got-exact) / exact; rel > 1.1/histSub {
			t.Fatalf("q%v: got %v, exact %v, rel err %.4f > %.4f", q, got, exact, rel, 1.1/histSub)
		}
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{-1000, -31.4, 0, 0, 5, 30} {
		h.Observe(v)
	}
	s := h.SnapshotHist()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if got, want := s.Sum, -1000.0-31.4+5+30; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Ascending order: negatives, then the zero bucket, then positives.
	if s.Buckets[0].Hi > 0 {
		t.Fatalf("first bucket should be negative: %+v", s.Buckets[0])
	}
	sawZero := false
	for i, b := range s.Buckets {
		if b.Lo == 0 && b.Hi == 0 {
			sawZero = true
			if b.Count != 2 {
				t.Fatalf("zero bucket count = %d, want 2", b.Count)
			}
		}
		if i > 0 && b.Lo < s.Buckets[i-1].Lo {
			t.Fatalf("buckets not ascending at %d", i)
		}
	}
	if !sawZero {
		t.Fatal("zero bucket missing")
	}
	if q := s.Quantile(0.05); q > -900 {
		t.Fatalf("q5 = %v, want near -1000", q)
	}
	if q := s.Quantile(0.99); q < 25 {
		t.Fatalf("q99 = %v, want near 30", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	b.Observe(-3)
	b.Observe(0)
	a.Merge(b)
	s := a.SnapshotHist()
	if s.Count != 202 {
		t.Fatalf("merged count = %d, want 202", s.Count)
	}
	want := float64(200*201)/2 - 3
	if math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("merged sum = %v, want %v", s.Sum, want)
	}
	if q := s.Quantile(0.5); math.Abs(q-100)/100 > 2.0/histSub {
		t.Fatalf("merged median = %v, want ~100", q)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h")
			for i := 0; i < per; i++ {
				c.Inc()
				r.Gauge("g").Set(float64(i))
				h.Observe(float64(i % 2))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(1.5)
	r.Histogram("c").Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				Lo    float64 `json:"lo"`
				Hi    float64 `json:"hi"`
				Count int64   `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["a"] != 2 || s.Gauges["b"] != 1.5 || s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot mismatch: %s", buf.String())
	}
	bs := s.Histograms["c"].Buckets
	if len(bs) != 1 || bs[0].Count != 1 || !(bs[0].Lo <= 3 && 3 < bs[0].Hi) {
		t.Fatalf("histogram buckets mismatch: %+v", bs)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(37.5) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

// BenchmarkHistogram measures the log-scaled histogram's hot operations:
// Observe (per-packet on the sim stats path) and the quantile read taken
// at run end. Observe must stay allocation-free and in the low-ns range
// (`make bench-obs` gates it alongside the span benchmarks).
func BenchmarkHistogram(b *testing.B) {
	b.Run("observe", func(b *testing.B) {
		h := NewHistogram()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) + 0.5)
		}
	})
	b.Run("quantile", func(b *testing.B) {
		h := NewHistogram()
		for i := 0; i < 100000; i++ {
			h.Observe(float64(i % 5000))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := h.SnapshotHist()
			if q := s.Quantile(0.99); q <= 0 {
				b.Fatal("bad quantile", q)
			}
		}
	})
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// TestSnapshotJSONNonFinite checks that NaN and ±Inf gauges and an
// infinite histogram sum are written as null while finite values keep
// their encoding, so the document still parses. An infinite observation
// lands in the end bucket.
func TestSnapshotJSONNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan").Set(math.NaN())
	r.Gauge("inf").Set(math.Inf(1))
	r.Gauge("ninf").Set(math.Inf(-1))
	r.Gauge("ok").Set(0.25)
	r.Histogram("h").Observe(math.Inf(1))
	r.Histogram("h").Observe(math.Inf(-1))
	r.Histogram("h").Observe(2)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s struct {
		Gauges     map[string]*float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64    `json:"count"`
			Sum   *float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"nan", "inf", "ninf"} {
		if v, ok := s.Gauges[name]; !ok || v != nil {
			t.Fatalf("gauge %s = %v (present %v), want null", name, v, ok)
		}
	}
	if v := s.Gauges["ok"]; v == nil || *v != 0.25 {
		t.Fatalf("finite gauge = %v, want 0.25", v)
	}
	if h := s.Histograms["h"]; h.Count != 3 || h.Sum != nil {
		t.Fatalf("histogram = %+v, want count 3 and a null sum", h)
	}
	bs := r.Snapshot().Histograms["h"].Buckets
	if len(bs) != 3 || bs[0].Hi != -bs[2].Lo || math.IsInf(bs[2].Hi, 0) {
		t.Fatalf("±Inf observations should land in the finite end buckets: %+v", bs)
	}
}
