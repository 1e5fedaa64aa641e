package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
// exit code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOCEXPLORE_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("run nocexplore: %v", err)
		return 0, ""
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
	code, stderr := runMain(t, "-n", "4", "-episodes", "1", "-lr", "NaN", "-progress", "0")
	if code != 1 || !strings.Contains(stderr, "-lr NaN") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming -lr", code, stderr)
	}
}

// TestSaveModelFailureExitsNonZero checks that a -save-model that writes
// no file fails the run.
func TestSaveModelFailureExitsNonZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.json")
	code, stderr := runMain(t, "-n", "4", "-episodes", "1", "-progress", "0", "-save-model", path)
	if code != 1 || !strings.Contains(stderr, "save model") {
		t.Fatalf("exit %d, stderr %q; want exit 1 reporting the failed save", code, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("model file written despite the failure")
	}
	ok := filepath.Join(t.TempDir(), "m.json")
	if code, stderr := runMain(t, "-n", "4", "-episodes", "1", "-progress", "0", "-save-model", ok); code == 1 {
		t.Fatalf("exit 1 on a writable path: %s", stderr)
	}
	if _, err := os.Stat(ok); err != nil {
		t.Fatalf("model not saved: %v", err)
	}
}
