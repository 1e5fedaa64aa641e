package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"routerless/internal/topo"
)

// TestMain runs the command itself when the test binary is re-executed
// with NOCGEN_RUN_MAIN set, so tests can check its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("NOCGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nocgen with args in a child process and returns its exit
// code and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOCGEN_RUN_MAIN=1")
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
		t.Fatalf("run nocgen: %v", err)
		return 0, ""
	}
}

// checkFlags runs before anything is built: each rejected case used to
// write a file nocsim rejects, fail in every method, or run silently with
// a different setting.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		n, cap, episodes, thr int
		epsilon               float64
		ok                    bool
	}{
		{"defaults", 8, 0, 30, 1, 0.1, true},
		{"bounds", 2, 1, 1, 1, 0, true},
		{"largest side", topo.MaxJSONSide, 34, 5, 8, 1, true},
		{"side of one", 1, 0, 30, 1, 0.1, false},
		{"zero side", 0, 0, 30, 1, 0.1, false},
		{"side above max", topo.MaxJSONSide + 1, 0, 30, 1, 0.1, false},
		{"negative cap", 4, -3, 30, 1, 0.1, false},
		{"zero episodes", 4, 0, 0, 1, 0.1, false},
		{"zero threads", 4, 0, 30, 0, 0.1, false},
		{"negative threads", 4, 0, 30, -2, 0.1, false},
		{"epsilon above one", 4, 0, 30, 1, 1.5, false},
		{"negative epsilon", 4, 0, 30, 1, -0.1, false},
		{"NaN epsilon", 4, 0, 30, 1, math.NaN(), false},
	} {
		err := checkFlags(tc.n, tc.cap, tc.episodes, tc.thr, tc.epsilon)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestNegativeCapExitsWithoutWriting checks that main applies checkFlags:
// a negative cap used to exit 0 with a file nocsim -topo then rejected.
func TestNegativeCapExitsWithoutWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	code, stderr := runMain(t, "-n", "4", "-cap", "-3", "-method", "greedy", "-q", "-o", path)
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want exit 1", code, stderr)
	}
	if _, err := os.Stat(path); err == nil {
		t.Fatal("design file written despite the rejected flag")
	}
}

// TestGreedyFileRoundTrips checks the nocgen -> nocsim contract: a
// -method greedy design decodes through topo's JSON decoder unchanged.
func TestGreedyFileRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	if code, stderr := runMain(t, "-n", "4", "-method", "greedy", "-q", "-o", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got topo.Topology
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("decode nocgen output: %v", err)
	}
	if got.NumLoops() == 0 || !got.FullyConnected() {
		t.Fatalf("decoded design has %d loops, fully connected %v", got.NumLoops(), got.FullyConnected())
	}
	again, err := json.MarshalIndent(&got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(again, '\n')) != string(data) {
		t.Fatal("re-encoding the decoded design changed the file")
	}
}
