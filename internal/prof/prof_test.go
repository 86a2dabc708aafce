package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// newFlags builds a Flags on a private flag set parsed with args.
func newFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("prof_test", flag.ContinueOnError)
	f := AddFlagsTo(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNoProfilingRequested(t *testing.T) {
	f := newFlags(t)
	if err := f.Start(); err != nil {
		t.Fatalf("Start with no flags: %v", err)
	}
	if f.cpuFile != nil {
		t.Error("CPU profile open without -cpuprofile")
	}
	// Stop must be a safe no-op, including when called repeatedly (the
	// CLIs call it via defer as well as explicitly).
	f.Stop()
	f.Stop()
}

func TestCPUProfileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f := newFlags(t, "-cpuprofile", path)
	if f.cpuFile != nil {
		t.Error("CPU profile open before Start")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if f.cpuFile == nil {
		t.Error("no CPU profile open while profiling")
	}
	f.Stop()
	if f.cpuFile != nil {
		t.Error("CPU profile open after Stop")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("profile file: %v", err)
	}
	if info.Size() == 0 {
		t.Error("CPU profile is empty")
	}
	// A second Stop must not disturb the written profile.
	f.Stop()
	if again, err := os.Stat(path); err != nil || again.Size() != info.Size() {
		t.Errorf("second Stop changed the profile: %v (size %d -> %d)", err, info.Size(), again.Size())
	}
}

func TestMemProfileWrittenAtStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mem.pprof")
	f := newFlags(t, "-memprofile", path)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if f.cpuFile != nil {
		t.Error("CPU profile open for a memory-only profile")
	}
	// The heap profile is only snapshotted at Stop, not at Start.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("heap profile exists before Stop: %v", err)
	}
	f.Stop()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("heap profile: %v", err)
	}
	if info.Size() == 0 {
		t.Error("heap profile is empty")
	}
}

func TestStartErrorOnBadPath(t *testing.T) {
	f := newFlags(t, "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"))
	if err := f.Start(); err == nil {
		f.Stop()
		t.Fatal("Start succeeded with an uncreatable profile path")
	}
	if f.cpuFile != nil {
		t.Error("CPU profile open after failed Start")
	}
}

func TestStartWhileProfileRunningFails(t *testing.T) {
	dir := t.TempDir()
	first := newFlags(t, "-cpuprofile", filepath.Join(dir, "a.pprof"))
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	defer first.Stop()
	second := newFlags(t, "-cpuprofile", filepath.Join(dir, "b.pprof"))
	if err := second.Start(); err == nil {
		second.Stop()
		t.Fatal("second concurrent CPU profile did not error")
	}
	if second.cpuFile != nil {
		t.Error("CPU profile open on the failed second profile")
	}
}
