package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"routerless/internal/nn"
)

// TestMain runs the command itself when the test binary is re-executed
// with NOCEXPLORE_RUN_MAIN set, so tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("NOCEXPLORE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nocexplore with args in a child process and returns its
// exit code, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOCEXPLORE_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatalf("run nocexplore: %v", err)
		return 0, "", ""
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		episodes, threads, inferBatch int
		epsilon, lr, cpuct            float64
		ok                            bool
	}{
		{"defaults", 100, 1, 0, 0.1, 1e-3, 1.5, true},
		{"bounds", 1, 1, 0, 0, 1e-300, 0, true},
		{"epsilon one", 5, 8, 0, 1, 10, 100, true},
		{"huge infer batch", 5, 2, 1 << 62, 0.1, 1e-3, 1.5, true},
		{"zero episodes", 0, 1, 0, 0.1, 1e-3, 1.5, false},
		{"negative episodes", -5, 1, 0, 0.1, 1e-3, 1.5, false},
		{"zero threads", 10, 0, 0, 0.1, 1e-3, 1.5, false},
		{"negative threads", 10, -2, 0, 0.1, 1e-3, 1.5, false},
		{"negative infer batch", 10, 1, -3, 0.1, 1e-3, 1.5, false},
		{"epsilon above one", 10, 1, 0, 2, 1e-3, 1.5, false},
		{"negative epsilon", 10, 1, 0, -0.1, 1e-3, 1.5, false},
		{"NaN epsilon", 10, 1, 0, math.NaN(), 1e-3, 1.5, false},
		{"NaN lr", 10, 1, 0, 0.1, math.NaN(), 1.5, false},
		{"infinite lr", 10, 1, 0, 0.1, math.Inf(1), 1.5, false},
		{"zero lr", 10, 1, 0, 0.1, 0, 1.5, false},
		{"negative lr", 10, 1, 0, 0.1, -1e-3, 1.5, false},
		{"negative c", 10, 1, 0, 0.1, 1e-3, -1, false},
		{"NaN c", 10, 1, 0, 0.1, 1e-3, math.NaN(), false},
		{"infinite c", 10, 1, 0, 0.1, 1e-3, math.Inf(1), false},
	} {
		err := checkFlags(tc.episodes, tc.threads, tc.inferBatch, tc.epsilon, tc.lr, tc.cpuct)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestBadFlagsExitBeforeSearch checks that main applies checkFlags: the
// NaN learning rate that used to train NaN weights for the whole run now
// fails at once.
func TestBadFlagsExitBeforeSearch(t *testing.T) {
	code, _, stderr := runMain(t, "-n", "4", "-episodes", "1", "-lr", "NaN", "-progress", "0")
	if code != 1 || !strings.Contains(stderr, "-lr NaN") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming -lr", code, stderr)
	}
}

// TestBadConfigCreatesNoFiles checks that a configuration drl.New
// rejects fails before the profile files are created.
func TestBadConfigCreatesNoFiles(t *testing.T) {
	for _, args := range [][]string{{"-n", "40"}, {"-n", "4", "-cap", "-2"}} {
		dir := t.TempDir()
		args = append(args, "-episodes", "1", "-progress", "0",
			"-cpuprofile", filepath.Join(dir, "p.pprof"), "-blockprofile", filepath.Join(dir, "b.pprof"))
		code, _, stderr := runMain(t, args...)
		if code != 1 || !strings.Contains(stderr, "drl:") {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 from the config check", args, code, stderr)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("%v: files left behind: %v", args, left)
		}
	}
}

// TestSaveModelFailureExitsNonZero checks that a -save-model that writes
// no file fails the run.
func TestSaveModelFailureExitsNonZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.json")
	code, _, stderr := runMain(t, "-n", "4", "-episodes", "1", "-progress", "0", "-save-model", path)
	if code != 1 || !strings.Contains(stderr, "save model") {
		t.Fatalf("exit %d, stderr %q; want exit 1 reporting the failed save", code, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("model file written despite the failure")
	}
	ok := filepath.Join(t.TempDir(), "m.json")
	if code, _, stderr := runMain(t, "-n", "4", "-episodes", "1", "-progress", "0", "-save-model", ok); code == 1 {
		t.Fatalf("exit 1 on a writable path: %s", stderr)
	}
	if _, err := os.Stat(ok); err != nil {
		t.Fatalf("model not saved: %v", err)
	}
}

// TestNegativeRunVarModelExits checks that a -load-model file whose
// BatchNorm running variance is negative, which would make every
// inference of the model NaN, fails the run before the search.
func TestNegativeRunVarModelExits(t *testing.T) {
	data, err := nn.MarshalModel(nn.NewPolicyValueNet(nn.Config{N: 4, BaseChannels: 4, Pools: 3}, 1))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var stats [][]float64
	if err := json.Unmarshal(m["run_stats"], &stats); err != nil {
		t.Fatal(err)
	}
	stats[1][0] = -1
	if m["run_stats"], err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runMain(t, "-n", "4", "-episodes", "1", "-progress", "0", "-load-model", path)
	if code != 1 || !strings.Contains(stderr, "variance") || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the variance before any output", code, stdout, stderr)
	}
}

// TestManifestFailureExitsAfterReport checks that a -manifest that cannot
// be written fails the run after the report is printed.
func TestManifestFailureExitsAfterReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.jsonl")
	code, stdout, stderr := runMain(t, "-n", "4", "-episodes", "2", "-progress", "0", "-manifest", path)
	if code != 1 || !strings.Contains(stderr, "write manifest") {
		t.Fatalf("exit %d, stderr %q; want exit 1 reporting the manifest", code, stderr)
	}
	if !strings.Contains(stdout, "episodes: 2") {
		t.Fatalf("report not printed before the failure: %q", stdout)
	}
}

// TestDivergedMetricsFileParses runs a search whose learning rate drives
// the value loss to NaN: the -metrics file and the -manifest line it
// leaves must still parse, with the value-MSE gauge written as null.
func TestDivergedMetricsFileParses(t *testing.T) {
	dir := t.TempDir()
	path, manifest := filepath.Join(dir, "m.json"), filepath.Join(dir, "runs.jsonl")
	code, _, stderr := runMain(t, "-n", "6", "-episodes", "40", "-seed", "3", "-lr", "1e300", "-progress", "0",
		"-metrics", path, "-manifest", manifest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("exit %d, no metrics file: %v\n%s", code, err, stderr)
	}
	var m struct {
		Gauges map[string]*float64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("exit %d, metrics file does not parse: %v\n%s", code, err, data)
	}
	if v, ok := m.Gauges["drl.value_mse"]; !ok || v != nil {
		t.Fatalf("metrics drl.value_mse = %v (present %v), want null after divergence", v, ok)
	}
	line, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(line, &man); err != nil {
		t.Fatalf("manifest does not parse: %v: %s", err, line)
	}
	if v, ok := man.Metrics["drl.value_mse"]; !ok || v != nil {
		t.Fatalf("manifest drl.value_mse = %v (present %v), want null after divergence", v, ok)
	}
}
