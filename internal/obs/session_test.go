package obs

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// contend generates genuine lock contention so the mutex and block
// profilers have events to record.
func contend() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				mu.Lock()
				for j := 0; j < 50; j++ {
					_ = j * j
				}
				mu.Unlock() //nolint:staticcheck // intentional hold-and-release loop
			}
		}()
	}
	wg.Wait()
}

// checkPprof asserts the file at path is a non-empty, well-formed pprof
// profile: the output of pprof's WriteTo(_, 0) is gzip-compressed protobuf,
// so it must carry the gzip magic and decompress to a non-empty body.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open profile: %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile at %s is not gzip-compressed pprof: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress profile: %v", err)
	}
	if len(body) == 0 {
		t.Fatalf("profile at %s has an empty body", path)
	}
}

// newTestSession registers a session's flags on a fresh FlagSet, parses
// args and silences its stdout and stderr lines.
func newTestSession(t *testing.T, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := NewSession(fs, "test", "run")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s.stdout, s.stderr = io.Discard, io.Discard
	return s
}

// TestSession runs a session with every output pointed at a temp dir and
// checks that each file it writes parses.
func TestSession(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	s := newTestSession(t,
		"-metrics", out("m.json"), "-debug-addr", "127.0.0.1:0",
		"-trace", out("t.json"), "-manifest", out("man.jsonl"), "-cpuprofile", out("cpu.pprof"),
		"-mutexprofile", out("mutex.pprof"), "-blockprofile", out("block.pprof"))
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if s.Registry == nil || s.Tracer == nil || s.Manifest == nil || s.debug == nil {
		t.Fatal("Start left a requested output unbuilt")
	}
	s.Manifest.Set("k", 1)
	if err := s.StartProfiles(); err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	sp := s.Tracer.Shard("main").Start(SpanEpisode)
	s.Registry.Counter("runs").Inc()
	contend()
	sp.End()
	s.StopProfiles()
	if err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s.Close()
	s.Close()

	var snap map[string]any
	if err := json.Unmarshal(readFile(t, out("m.json")), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(readFile(t, out("t.json")), &trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	complete := false
	for _, e := range trace.TraceEvents {
		complete = complete || (e.Ph == "X" && e.Name == SpanEpisode.String())
	}
	if !complete {
		t.Fatalf("trace has no complete %s event: %+v", SpanEpisode, trace.TraceEvents)
	}
	lines := strings.Split(strings.TrimSpace(string(readFile(t, out("man.jsonl")))), "\n")
	if len(lines) != 1 {
		t.Fatalf("manifest has %d lines, want 1", len(lines))
	}
	var m Manifest
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil || m.Tool != "test" || m.Config["k"] != 1.0 {
		t.Fatalf("manifest %q: %v", lines[0], err)
	}
	if strings.Contains(lines[0], "best_hops_curve") {
		t.Fatalf("manifest without a curve writes the key: %q", lines[0])
	}
	for _, p := range []string{"cpu.pprof", "mutex.pprof", "block.pprof"} {
		checkPprof(t, out(p))
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStartMutexProfile checks that the session's mutex profile samples
// one in five contended acquisitions while it runs, restores the sampling
// fraction the run found when it stops, and writes a pprof profile.
func TestStartMutexProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mutex.pprof")
	s := newTestSession(t, "-mutexprofile", path)
	prev := runtime.SetMutexProfileFraction(3)
	defer runtime.SetMutexProfileFraction(prev)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.StartProfiles(); err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 5 {
		t.Fatalf("mutex fraction %d while profiling, want 5", got)
	}
	contend()
	s.StopProfiles()
	s.StopProfiles()
	if got := runtime.SetMutexProfileFraction(-1); got != 3 {
		t.Fatalf("mutex fraction %d after stop, want the previous 3", got)
	}
	if err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s.Close()
	checkPprof(t, path)
}

// TestStartBlockProfile checks that the session's block profile writes a
// pprof profile and that a second stop is a no-op.
func TestStartBlockProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "block.pprof")
	s := newTestSession(t, "-blockprofile", path)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.StartProfiles(); err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	contend()
	s.StopProfiles()
	s.StopProfiles()
	if err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s.Close()
	checkPprof(t, path)
}

// TestStartContentionProfiles checks that the mutex and block profiles
// run together in one bracket, and that a session with neither path set
// is a usable no-op.
func TestStartContentionProfiles(t *testing.T) {
	dir := t.TempDir()
	mp, bp := filepath.Join(dir, "m.pprof"), filepath.Join(dir, "b.pprof")
	s := newTestSession(t, "-mutexprofile", mp, "-blockprofile", bp)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := s.StartProfiles(); err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	contend()
	s.StopProfiles()
	if err := s.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	s.Close()
	checkPprof(t, mp)
	checkPprof(t, bp)

	// Neither path set: a usable no-op.
	s = newTestSession(t)
	if err := s.Start(); err != nil {
		t.Fatalf("empty Start: %v", err)
	}
	if err := s.StartProfiles(); err != nil {
		t.Fatalf("empty StartProfiles: %v", err)
	}
	s.StopProfiles()
	if err := s.Finish(); err != nil {
		t.Fatalf("empty Finish: %v", err)
	}
	s.Close()
}

// TestSessionStartBadPath checks that Start fails on a path in a missing
// directory and leaves no file behind, even the ones it had created.
func TestSessionStartBadPath(t *testing.T) {
	dir := t.TempDir()
	s := newTestSession(t, "-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-mutexprofile", filepath.Join(dir, "mutex.pprof"),
		"-blockprofile", filepath.Join(dir, "no", "such", "dir", "b.pprof"), "-metrics", filepath.Join(dir, "m.json"))
	if err := s.Start(); err == nil {
		t.Fatal("Start succeeded on an uncreatable path")
	}
	s.Close()
	s.Close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("files left behind: %v", left)
	}
}

// TestSessionCloseBeforeProfiles checks that a run that fails between
// Start and StartProfiles leaves no empty profile files.
func TestSessionCloseBeforeProfiles(t *testing.T) {
	dir := t.TempDir()
	s := newTestSession(t, "-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-blockprofile", filepath.Join(dir, "block.pprof"))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("unstarted profiles left behind: %v", left)
	}
}

// TestSessionFinishReportsFirstError checks that Finish still writes the
// outputs after a failing one and returns the first error.
func TestSessionFinishReportsFirstError(t *testing.T) {
	dir := t.TempDir()
	s := newTestSession(t, "-trace", filepath.Join(dir, "no", "t.json"),
		"-manifest", filepath.Join(dir, "no", "m.jsonl"), "-metrics", filepath.Join(dir, "m.json"))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	err := s.Finish()
	if err == nil || !strings.HasPrefix(err.Error(), "write trace:") {
		t.Fatalf("Finish error %v, want the trace's", err)
	}
	readFile(t, filepath.Join(dir, "m.json"))
}
