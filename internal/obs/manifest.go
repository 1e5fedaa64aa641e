package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"routerless/internal/tensor"
)

// Manifest is the provenance record for one search, simulation, or
// experiment run: enough to re-run it (config, seed) and to trust it (git
// revision, toolchain, host shape, the conv kernel bodies its timings come
// from, wall time, final metrics). Written as one JSONL line per run so
// archives append cheaply; the ROADMAP item-1 design store keys archived
// designs by these records.
type Manifest struct {
	Tool       string         `json:"tool"` // nocexplore | nocsim | benchtab
	StartedAt  time.Time      `json:"started_at"`
	WallSecs   float64        `json:"wall_secs,omitempty"`
	GoVersion  string         `json:"go_version"`
	GitRev     string         `json:"git_rev,omitempty"`
	GitDirty   bool           `json:"git_dirty,omitempty"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	SIMD       string         `json:"simd"` // conv kernel bodies: go | avx2 | avx512
	Seed       int64          `json:"seed,omitempty"`
	Config     map[string]any `json:"config,omitempty"`  // CLI flags / run parameters
	Metrics    map[string]any `json:"metrics,omitempty"` // final metrics snapshot
	// BestHopsCurve is a search's quality over time: [episode, best
	// average hops] at each improvement (nocexplore only).
	BestHopsCurve [][2]float64 `json:"best_hops_curve,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping toolchain and
// VCS provenance from the build info (git_rev is empty for non-VCS builds
// like `go run` of a dirty checkout without stamping).
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Tool:       tool,
		StartedAt:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       tensor.SIMD(),
		Config:     map[string]any{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRev = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m
}

// Set records one config key (a CLI flag value, grid size, episode count).
// Nil-safe so instrumentation can stay unconditional.
func (m *Manifest) Set(key string, v any) {
	if m == nil {
		return
	}
	m.Config[key] = v
}

// Finish stamps the wall time and attaches the final metrics snapshot
// (counters and gauges verbatim, a non-finite gauge or mean as null;
// histograms reduced to count/mean/p50/p95/p99 so the record stays one
// line). reg may be nil.
func (m *Manifest) Finish(reg *Registry) {
	if m == nil {
		return
	}
	m.WallSecs = time.Since(m.StartedAt).Seconds()
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	m.Metrics = make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k, v := range s.Counters {
		m.Metrics[k] = v
	}
	for k, v := range s.Gauges {
		m.Metrics[k] = jsonFloat(v)
	}
	for k, h := range s.Histograms {
		m.Metrics[k] = map[string]any{
			"count": h.Count,
			"mean":  jsonFloat(h.Mean()),
			"p50":   h.Quantile(0.50),
			"p95":   h.Quantile(0.95),
			"p99":   h.Quantile(0.99),
		}
	}
}

// AppendFile appends the manifest as one JSON line to path, creating the
// file if needed. Nil-safe; returns any file or encoding error.
func (m *Manifest) AppendFile(path string) error {
	if m == nil {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = f.Write(append(data, '\n'))
	return err
}
