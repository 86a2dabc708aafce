// Package prof wires the standard -cpuprofile/-memprofile flags into the
// command-line tools. The cycle kernel is allocation-free in steady state,
// so a memory profile that shows hot-path allocations is a regression
// signal; the CPU profile localizes time across the allocator/traversal
// phases (see DESIGN.md, "The allocation-free cycle kernel").
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profiling destinations registered by AddFlags.
type Flags struct {
	cpu *string
	mem *string

	cpuFile *os.File
}

// AddFlags registers -cpuprofile and -memprofile on the default flag set.
// Call before flag.Parse.
func AddFlags() *Flags {
	return AddFlagsTo(flag.CommandLine)
}

// AddFlagsTo registers -cpuprofile and -memprofile on fs. Call before the
// set is parsed. Split out from AddFlags so tests (and embedders with their
// own flag sets) can exercise the profile lifecycle without mutating the
// process-wide default set.
func AddFlagsTo(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit"),
	}
}

// Start begins CPU profiling if requested. It returns an error rather than
// exiting so callers keep their own error conventions.
func (f *Flags) Start() error {
	if *f.cpu == "" {
		return nil
	}
	file, err := os.Create(*f.cpu)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("prof: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile and writes the heap profile. Safe to call
// via defer even when profiling was never requested; errors writing the
// heap profile are reported on stderr (the run's results already printed).
func (f *Flags) Stop() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		f.cpuFile.Close()
		f.cpuFile = nil
	}
	if *f.mem == "" {
		return
	}
	file, err := os.Create(*f.mem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
		return
	}
	defer file.Close()
	runtime.GC() // materialize the steady-state live set before snapshotting
	if err := pprof.WriteHeapProfile(file); err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
	}
}
