package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with BENCHTAB_RUN_MAIN set, so tests can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTAB_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs benchtab with args in a child process and returns its exit
// code, stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHTAB_RUN_MAIN=1")
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
		t.Fatalf("run benchtab: %v", err)
		return 0, "", ""
	}
}

// checkFlags runs before any experiment: an unknown -exp used to fail only
// after the profiles and trace had started, -j below 1 reached the
// experiment worker pool, and -exp all -csv exited 0 without writing the
// file.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   string
		jobs int
		csv  string
		ok   bool
	}{
		{"all", "all", 1, "", true},
		{"table", "T3", 4, "", true},
		{"section", "S6.7", 1, "", true},
		{"ablations", "A", 1, "", true},
		{"unknown id", "T9", 1, "", false},
		{"empty id", "", 1, "", false},
		{"lower-case id", "t3", 1, "", false},
		{"zero jobs", "T3", 0, "", false},
		{"negative jobs", "all", -1, "", false},
		{"csv of one", "T5", 1, "t5.csv", true},
		{"csv of all", "all", 1, "all.csv", false},
	} {
		if err := checkFlags(tc.id, tc.jobs, tc.csv); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestManifestFailureExitsAfterReport checks that a -manifest that cannot
// be written fails the run after the table is printed.
func TestManifestFailureExitsAfterReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "m.jsonl")
	code, stdout, stderr := runMain(t, "-exp", "T5", "-j", "1", "-manifest", path)
	if code != 1 || !strings.Contains(stderr, "write manifest") {
		t.Fatalf("exit %d, stderr %q; want exit 1 reporting the manifest", code, stderr)
	}
	if !strings.Contains(stdout, "== T5:") {
		t.Fatalf("report not printed before the failure: %q", stdout)
	}
}

// TestListPrintsEveryIDOnce: -list prints one line per experiment, in
// All's (publication) order, and checkFlags accepts each id it prints.
func TestListPrintsEveryIDOnce(t *testing.T) {
	code, stdout, _ := runMain(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := []string{"T1", "T2", "T3", "T4", "T5", "F9", "F10", "F11", "F12",
		"F13", "F14", "F15", "F16", "S6.1", "S6.7", "S6.8", "A", "IMR"}
	if !slices.Equal(ids, want) {
		t.Fatalf("-list ids %v, want %v", ids, want)
	}
	for _, id := range ids {
		if err := checkFlags(id, 1, ""); err != nil {
			t.Errorf("-list prints %s, which checkFlags rejects: %v", id, err)
		}
	}
}
