package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"routerless/internal/topo"
)

// TestMain runs the command itself when the test binary is re-executed
// with NOCSIM_RUN_MAIN set, so tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("NOCSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs nocsim with args in a child process and returns its exit
// code, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOCSIM_RUN_MAIN=1")
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
		t.Fatalf("run nocsim: %v", err)
		return 0, "", ""
	}
}

// checkFlags runs before anything is built: each rejected case used to
// panic, exhaust memory, or print a meaningless sweep row.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                               string
		mesh, delay, warmup, measure, jobs int
		rates, pattern, app                string
		ok                                 bool
	}{
		{"defaults", 0, 2, 2000, 10000, 1, "0.005,0.02,0.05,0.1", "uniform_random", "", true},
		{"mesh at bounds", topo.MaxJSONSide, 0, 0, 1, 1, "0.3", "uniform_random", "", true},
		{"smallest mesh", 2, 2, 200, 500, 1, " 0.01 , 0.02 ", "uniform_random", "", true},
		{"negative delay", 4, -1, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"mesh of one", 1, 2, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"negative mesh", -3, 2, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"mesh above max", topo.MaxJSONSide + 1, 2, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"huge mesh", 100000, 2, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"NaN rate", 4, 2, 200, 500, 1, "NaN", "uniform_random", "", false},
		{"infinite rate", 4, 2, 200, 500, 1, "0.01,+Inf", "uniform_random", "", false},
		{"negative rate", 4, 2, 200, 500, 1, "-0.5", "uniform_random", "", false},
		{"zero rate", 4, 2, 200, 500, 1, "0", "uniform_random", "", false},
		{"unparsable rate", 4, 2, 200, 500, 1, "0.01,x", "uniform_random", "", false},
		{"empty rate", 4, 2, 200, 500, 1, "0.01,", "uniform_random", "", false},
		{"negative warmup", 4, 2, -1, 500, 1, "0.01", "uniform_random", "", false},
		{"negative measure", 4, 2, 200, -20, 1, "0.01", "uniform_random", "", false},
		{"zero measure", 4, 2, 200, 0, 1, "0.01", "uniform_random", "", false},
		{"delay at bound", 4, 2, 200, 500, 1, "0.01", "uniform_random", "", true},
		{"delay above 2", 4, 3, 200, 500, 1, "0.01", "uniform_random", "", false},
		{"rate of one", 4, 2, 200, 500, 1, "0.5,1", "uniform_random", "", true},
		{"rate above one", 4, 2, 200, 500, 1, "0.5,1.5", "uniform_random", "", false},
		{"many jobs", 4, 2, 200, 500, 64, "0.01", "uniform_random", "", true},
		{"zero jobs", 4, 2, 200, 500, 0, "0.01", "uniform_random", "", false},
		{"negative jobs", 4, 2, 200, 500, -2, "0.01", "uniform_random", "", false},
		{"known app", 4, 2, 200, 500, 1, "0.01", "uniform_random", "canneal", true},
		{"app overrides pattern", 4, 2, 200, 500, 1, "0.01", "bogus", "canneal", true},
		{"unknown pattern", 4, 2, 200, 500, 1, "0.01", "bogus", "", false},
		{"empty pattern", 4, 2, 200, 500, 1, "0.01", "", "", false},
		{"unknown app", 4, 2, 200, 500, 1, "0.01", "uniform_random", "bogus", false},
	} {
		rates, _, _, err := checkFlags(tc.mesh, tc.delay, tc.warmup, tc.measure, tc.jobs, tc.rates, tc.pattern, tc.app)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && len(rates) == 0 {
			t.Errorf("%s: no rates parsed", tc.name)
		}
	}
}

// TestBadPatternCreatesNoFiles checks that an unknown -pattern fails
// before the profile files are created.
func TestBadPatternCreatesNoFiles(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runMain(t, "-mesh", "4", "-pattern", "bogus",
		"-cpuprofile", filepath.Join(dir, "p.pprof"), "-blockprofile", filepath.Join(dir, "b.pprof"))
	if code != 1 || !strings.Contains(stderr, "bogus") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the pattern", code, stderr)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("files left behind: %v", left)
	}
}

// TestManifestFailureExitsAfterReport checks that a -manifest that cannot
// be written fails the run after the sweep table is printed.
func TestManifestFailureExitsAfterReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.jsonl")
	code, stdout, stderr := runMain(t, "-mesh", "4", "-rates", "0.01", "-warmup", "10", "-measure", "50", "-manifest", path)
	if code != 1 || !strings.Contains(stderr, "write manifest") {
		t.Fatalf("exit %d, stderr %q; want exit 1 reporting the manifest", code, stderr)
	}
	if !strings.Contains(stdout, "zero-load latency") {
		t.Fatalf("report not printed before the failure: %q", stdout)
	}
}

// TestSweepSameAtAnyJ checks -j's promise: a sweep printed and written
// with the points run in parallel matches the sequential one byte for
// byte, on stdout and in the -csv file.
func TestSweepSameAtAnyJ(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "sweep.csv")
	run := func(j string) (string, []byte) {
		code, stdout, stderr := runMain(t, "-mesh", "4", "-warmup", "200", "-measure", "2000",
			"-rates", "0.02,0.05,0.1,0.2", "-j", j, "-csv", csv)
		if code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %q", j, code, stderr)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return stdout, data
	}
	seqOut, seqCSV := run("1")
	parOut, parCSV := run("3")
	if seqOut != parOut {
		t.Fatalf("stdout differs:\n-j 1:\n%s\n-j 3:\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Fatalf("-csv differs:\n-j 1:\n%s\n-j 3:\n%s", seqCSV, parCSV)
	}
}
