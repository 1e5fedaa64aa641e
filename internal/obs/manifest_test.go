package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"routerless/internal/tensor"
)

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("nocexplore")
	m.Seed = 42
	m.Set("n", 8)
	m.Set("episodes", 100)
	m.BestHopsCurve = [][2]float64{{1, 6.25}, {4, 6}}

	reg := NewRegistry()
	reg.Counter("drl.episodes").Add(100)
	reg.Gauge("drl.best_reward").Set(12.5)
	reg.Histogram("drl.episode_reward_hist").Observe(3)
	m.Finish(reg)

	if m.WallSecs < 0 {
		t.Fatal("negative wall time")
	}
	if m.GoVersion != runtime.Version() || m.GOMAXPROCS < 1 || m.SIMD != tensor.SIMD() {
		t.Fatalf("toolchain fields not stamped: %+v", m)
	}

	path := filepath.Join(t.TempDir(), "manifests.jsonl")
	if err := m.AppendFile(path); err != nil {
		t.Fatal(err)
	}
	// Appends accumulate lines, one JSON object each.
	if err := m.AppendFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var got Manifest
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("manifest line not JSON: %v", err)
		}
		if got.Tool != "nocexplore" || got.Seed != 42 || got.SIMD != m.SIMD {
			t.Fatalf("manifest round-trip mismatch: %+v", got)
		}
		if got.Config["episodes"] != float64(100) {
			t.Fatalf("config lost: %+v", got.Config)
		}
		if !slices.Equal(got.BestHopsCurve, m.BestHopsCurve) {
			t.Fatalf("best_hops_curve %v, want %v", got.BestHopsCurve, m.BestHopsCurve)
		}
		hist, ok := got.Metrics["drl.episode_reward_hist"].(map[string]any)
		if !ok || hist["count"] != float64(1) {
			t.Fatalf("histogram summary lost: %+v", got.Metrics)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d manifest lines, want 2", lines)
	}
}

func TestManifestNilSafe(t *testing.T) {
	var m *Manifest
	m.Set("k", 1)
	m.Finish(nil)
	if err := m.AppendFile(filepath.Join(t.TempDir(), "x.jsonl")); err != nil {
		t.Fatal(err)
	}
}
