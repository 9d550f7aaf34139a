// Package prof wires the standard runtime/pprof profilers into the CLIs:
// one call site per command, every exit path covered by a single deferred
// stop. The explorer and the search driver both run hot enough that the
// alloc/CPU split is worth a flag, not a rebuild with test benchmarks.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile outputs a command requested; empty paths are
// off. Mem writes two files: the in-use heap profile at the path itself
// and the cumulative allocation profile at path+".allocs" — the two
// views answer different questions (live footprint vs. churn) and cost
// nothing extra to emit together.
type Config struct {
	// CPU is the CPU profile path.
	CPU string
	// Mem is the memory profile path (heap at Mem, allocs at
	// Mem+".allocs").
	Mem string
	// Block is the blocking profile path; sampling turns on at start
	// (SetBlockProfileRate(1)) and off again at stop.
	Block string
	// Mutex is the mutex-contention profile path; sampling turns on at
	// start (SetMutexProfileFraction(1)) and off again at stop.
	Mutex string
}

// StartConfig begins the requested profilers and returns a stop function
// that finishes them and writes the end-of-run profiles. Deferred in a
// command's run(), the stop covers every exit: a clean finish, a failed
// run, and the SIGINT / -stop-after interrupt path (exit code 3), which
// returns through run's defers like any other error. A zero Config makes
// both calls no-ops.
func StartConfig(cfg Config) (stop func(), err error) {
	var cpuFile *os.File
	if cfg.CPU != "" {
		cpuFile, err = os.Create(cfg.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	// Block and mutex sampling must be on for the run's duration: the
	// profiles accumulate events, so flipping the rate only at write
	// time would capture nothing.
	if cfg.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if cfg.Mem != "" {
			runtime.GC() // settle live objects so the heap profile is the steady state
			writeProfile("heap", cfg.Mem, "memprofile")
			writeProfile("allocs", cfg.Mem+".allocs", "memprofile")
		}
		if cfg.Block != "" {
			writeProfile("block", cfg.Block, "blockprofile")
			runtime.SetBlockProfileRate(0)
		}
		if cfg.Mutex != "" {
			writeProfile("mutex", cfg.Mutex, "mutexprofile")
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}

// writeProfile dumps the named runtime profile to path; stop-path
// failures are reported to stderr, never returned — the run's result
// must not be discarded over a profile file.
func writeProfile(profile, path, label string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, label+":", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, label+":", err)
	}
}
