// Package obs is the observability layer shared by the simulator, the DRL
// search, and the CLIs: a concurrency-safe metrics registry (counters,
// gauges, log-scaled histograms), the search's per-episode JSONL event
// logger, a per-goroutine span tracer with Chrome trace export, run
// manifests, and an optional debug HTTP endpoint (expvar + pprof +
// spans). It is stdlib-only.
//
// Every type is nil-safe: a nil *Registry hands out nil metrics, and every
// metric method on a nil receiver is a no-op. Instrumented code therefore
// never branches on "is telemetry enabled" — it just calls Add/Set/Observe
// on whatever the registry gave it, and pays a single nil check when
// telemetry is off.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set to arbitrary values.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop; safe under concurrency).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Snapshot is a consistent-enough copy of a registry's metrics (each value
// is read atomically; the set of metrics is read under the registry lock).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Registry names and owns metrics. Metric lookup takes a mutex — callers
// on hot paths should look metrics up once and keep the pointer; the
// metric operations themselves are atomic and lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. The
// log-scaled layout needs no bucket configuration. A nil registry returns
// a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies every metric's current value. Safe to call concurrently
// with metric updates. A nil registry returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.SnapshotHist()
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON. A non-finite gauge or
// histogram sum is written as null, so one diverged value cannot fail the
// whole document.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	type hist struct {
		Count   int64     `json:"count"`
		Sum     jsonFloat `json:"sum"`
		Buckets []Bucket  `json:"buckets,omitempty"`
	}
	out := struct {
		Counters   map[string]int64     `json:"counters,omitempty"`
		Gauges     map[string]jsonFloat `json:"gauges,omitempty"`
		Histograms map[string]hist      `json:"histograms,omitempty"`
	}{s.Counters, make(map[string]jsonFloat, len(s.Gauges)), make(map[string]hist, len(s.Histograms))}
	for name, v := range s.Gauges {
		out.Gauges[name] = jsonFloat(v)
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = hist{h.Count, jsonFloat(h.Sum), h.Buckets}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// jsonFloat encodes like a float64, except that NaN and ±Inf, which
// encoding/json refuses, become null.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}
