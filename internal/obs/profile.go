package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins writing a CPU profile to path and returns a stop
// function that flushes and closes it. The stop function is idempotent, so
// callers can both defer it (normal return) and call it explicitly before
// an os.Exit path that would skip defers. It is the shared implementation
// behind every binary's -cpuprofile flag; bracket only the section worth
// profiling (the search, the sweep), not flag parsing or report printing.
func StartCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// DefaultMutexFraction is the mutex-profile sampling fraction
// StartMutexProfile selects when rate <= 0: one in five contended lock
// acquisitions is recorded, cheap enough to leave on for a whole search.
const DefaultMutexFraction = 5

// StartMutexProfile enables mutex-contention profiling (recording 1/rate of
// contended lock events; rate <= 0 selects DefaultMutexFraction) and
// returns a stop function that writes the accumulated profile to path,
// restores the previous sampling fraction, and closes the file. Like
// StartCPUProfile's stop it is idempotent, so callers can both defer it and
// call it explicitly before an os.Exit path; unlike the CPU variant it
// returns an error because the profile body is written at stop time. The
// profile answers "which locks did goroutines wait on, and for how long" —
// the direct measure of search-tree and parameter-server lock contention.
func StartMutexProfile(path string, rate int) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create mutex profile: %w", err)
	}
	if rate <= 0 {
		rate = DefaultMutexFraction
	}
	prev := runtime.SetMutexProfileFraction(rate)
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		runtime.SetMutexProfileFraction(prev)
		err := pprof.Lookup("mutex").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write mutex profile: %w", err)
		}
		return nil
	}, nil
}

// StartBlockProfile enables goroutine blocking profiling (one sample per
// rate nanoseconds blocked; rate <= 0 records every blocking event) and
// returns a stop function with the same contract as StartMutexProfile's.
// Where the mutex profile attributes waiting to the lock holder, the block
// profile attributes it to the waiter — channel operations included — so
// the pair brackets the de-serialization story from both sides.
func StartBlockProfile(path string, rate int) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("create block profile: %w", err)
	}
	if rate <= 0 {
		rate = 1
	}
	runtime.SetBlockProfileRate(rate)
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		runtime.SetBlockProfileRate(0)
		err := pprof.Lookup("block").WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write block profile: %w", err)
		}
		return nil
	}, nil
}

// StartContentionProfiles starts the mutex and/or block profiler for each
// non-empty path (an empty path skips that profiler, both empty is a no-op)
// at the default rates, returning one idempotent stop function that writes
// whatever was started and reports the first error. It is the shared
// implementation behind every binary's -mutexprofile/-blockprofile flags.
func StartContentionProfiles(mutexPath, blockPath string) (func() error, error) {
	var stops []func() error
	if mutexPath != "" {
		stop, err := StartMutexProfile(mutexPath, 0)
		if err != nil {
			return nil, err
		}
		stops = append(stops, stop)
	}
	if blockPath != "" {
		stop, err := StartBlockProfile(blockPath, 0)
		if err != nil {
			if len(stops) > 0 {
				stops[0]() // release the mutex profiler we already armed
			}
			return nil, err
		}
		stops = append(stops, stop)
	}
	return func() error {
		var first error
		for _, stop := range stops {
			if err := stop(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
