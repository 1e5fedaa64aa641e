package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session is the telemetry of one CLI run: the seven flags nocexplore,
// nocsim and benchtab share, what they build, and the files they write.
// Its lifecycle is
//
//	s := obs.NewSession(flag.CommandLine, "nocsim", "simulation")
//	flag.Parse()
//	... check the tool's own flags and inputs ...
//	s.Start()          // build what the flags ask for, create files
//	s.StartProfiles()  // bracket the run itself
//	... run ...
//	s.StopProfiles()
//	s.Finish()         // trace, manifest, metrics
//	s.Close()          // on every exit path, os.Exit ones included
//
// Registry, Tracer and Manifest are nil unless a flag asks for
// them: the registry for -metrics, -debug-addr or -manifest, the tracer
// for -trace or -debug-addr. All but Manifest's fields are nil-safe.
type Session struct {
	Registry *Registry
	Tracer   *Tracer
	Manifest *Manifest

	tool                                            string
	metricsPath, debugAddr, tracePath, manifestPath string

	profiles                 [3]profile // cpu, mutex, block
	prevMutexFraction        int
	started, stopped, closed bool
	profileErr               error // first profile write error, returned by Finish

	debug          *DebugServer
	stdout, stderr io.Writer
}

// profile is one -cpuprofile, -mutexprofile or -blockprofile output; its
// file exists from Start until the bracket stops.
type profile struct {
	kind, path string
	f          *os.File
}

// NewSession registers the seven shared telemetry flags on fs. noun names
// what the profiles and trace cover ("search", "simulation", "experiment
// run") in the help text; tool prefixes the session's stderr lines and
// names the manifest.
func NewSession(fs *flag.FlagSet, tool, noun string) *Session {
	s := &Session{tool: tool, stdout: os.Stdout, stderr: os.Stderr}
	fs.StringVar(&s.metricsPath, "metrics", "", "write a metrics snapshot as JSON to this path at exit")
	fs.StringVar(&s.debugAddr, "debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address while running")
	fs.StringVar(&s.tracePath, "trace", "", "write a Chrome trace-event JSON file of the "+noun+" (load in Perfetto) to this path")
	fs.StringVar(&s.manifestPath, "manifest", "", "append a JSONL run-provenance manifest (config, seed, git rev, wall time, metrics) to this path")
	s.profiles = [3]profile{{kind: "cpu"}, {kind: "mutex"}, {kind: "block"}}
	fs.StringVar(&s.profiles[0].path, "cpuprofile", "", "write a CPU profile of the "+noun+" to this file")
	fs.StringVar(&s.profiles[1].path, "mutexprofile", "", "write a mutex-contention pprof profile of the "+noun+" to this file (which locks goroutines waited on)")
	fs.StringVar(&s.profiles[2].path, "blockprofile", "", "write a goroutine-blocking pprof profile of the "+noun+" to this file")
	return s
}

// Start builds what the flags ask for, creates the profile files and
// starts the debug server. Call it after the tool has rejected its own
// bad flags and inputs. On error it removes the files it created.
func (s *Session) Start() error {
	fail := func(err error) error {
		for i := range s.profiles {
			if p := &s.profiles[i]; p.f != nil {
				p.f.Close()
				os.Remove(p.path)
				p.f = nil
			}
		}
		return err
	}
	for i := range s.profiles {
		p := &s.profiles[i]
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			return fail(err)
		}
		p.f = f
	}
	if s.metricsPath != "" || s.debugAddr != "" || s.manifestPath != "" {
		s.Registry = NewRegistry()
	}
	if s.tracePath != "" || s.debugAddr != "" {
		s.Tracer = NewTracer(1 << 16)
	}
	if s.debugAddr != "" {
		d, err := StartDebug(s.debugAddr, s.Registry, s.Tracer)
		if err != nil {
			return fail(err)
		}
		s.debug = d
		fmt.Fprintf(s.stderr, "%s: debug endpoint on http://%s\n", s.tool, d.Addr)
	}
	if s.manifestPath != "" {
		s.Manifest = NewManifest(s.tool)
	}
	return nil
}

// StartProfiles opens the profiles' bracket. Bracket only the run itself
// (the search, the sweep), not flag parsing or report printing. The mutex
// profile records one in five contended lock acquisitions, cheap enough
// to leave on for a whole search; the block profile records every
// blocking event.
func (s *Session) StartProfiles() error {
	if f := s.profiles[0].f; f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	if s.profiles[1].f != nil {
		s.prevMutexFraction = runtime.SetMutexProfileFraction(5)
	}
	if s.profiles[2].f != nil {
		runtime.SetBlockProfileRate(1)
	}
	s.started = true
	return nil
}

// StopProfiles closes the bracket StartProfiles opened and writes the
// profiles; Finish returns the first write error. Idempotent.
func (s *Session) StopProfiles() {
	if !s.started || s.stopped {
		return
	}
	s.stopped = true
	for _, p := range s.profiles {
		if p.f == nil {
			continue
		}
		var err error
		switch p.kind {
		case "cpu":
			pprof.StopCPUProfile()
		case "mutex":
			runtime.SetMutexProfileFraction(s.prevMutexFraction)
			err = pprof.Lookup("mutex").WriteTo(p.f, 0)
		case "block":
			runtime.SetBlockProfileRate(0)
			err = pprof.Lookup("block").WriteTo(p.f, 0)
		}
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			if s.profileErr == nil {
				s.profileErr = fmt.Errorf("write %s profile: %w", p.kind, err)
			}
			continue
		}
		fmt.Fprintf(s.stderr, "%s: %s profile written to %s\n", s.tool, p.kind, p.path)
	}
}

// Finish writes the trace, appends the manifest and writes the metrics
// JSON, printing "metrics written to PATH" on stdout. Call it once the run
// has quiesced (WriteTrace's requirement). It tries every output and
// returns the first error, a profile write's included; the CLIs print
// their report and then exit 1 on it.
func (s *Session) Finish() error {
	err := s.profileErr
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if s.tracePath != "" {
		if e := writeFile(s.tracePath, s.Tracer.WriteTrace); e != nil {
			keep(fmt.Errorf("write trace: %w", e))
		} else {
			fmt.Fprintf(s.stderr, "%s: trace written to %s\n", s.tool, s.tracePath)
		}
	}
	if s.Manifest != nil {
		s.Manifest.Finish(s.Registry)
		if e := s.Manifest.AppendFile(s.manifestPath); e != nil {
			keep(fmt.Errorf("write manifest: %w", e))
		}
	}
	if s.metricsPath != "" {
		if e := writeFile(s.metricsPath, s.Registry.WriteJSON); e != nil {
			keep(fmt.Errorf("write metrics: %w", e))
		} else {
			fmt.Fprintf(s.stdout, "metrics written to %s\n", s.metricsPath)
		}
	}
	return err
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close ends the session on every exit path: it stops running profiles,
// removes profile files whose bracket never opened and stops the debug
// server. os.Exit skips defers, so
// the CLIs call it before each os.Exit too. Idempotent.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.started {
		s.StopProfiles()
	} else {
		for _, p := range s.profiles {
			if p.f != nil {
				p.f.Close()
				os.Remove(p.path)
			}
		}
	}
	s.debug.Close()
}
