package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// benchProcs is the GOMAXPROCS pin: the workloads use at most 2 worker
// slots, and a pinned value keeps captures from wider hosts comparable.
const benchProcs = 2

// pinProcs pins GOMAXPROCS to benchProcs, clamped to the CPUs present.
func pinProcs() int {
	n := benchProcs
	if c := runtime.NumCPU(); c < n {
		n = c
	}
	runtime.GOMAXPROCS(n)
	return n
}

// procStatusKB reads one "Key:   1234 kB" line of /proc/self/status.
func procStatusKB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseFloat(fields[0], 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no %s line", key)
}

// resetPeakRSS collects the heap, returns what it frees to the OS and
// resets the kernel's peak-RSS counter for this process, so that the next
// peakRSSMB reads the high-water mark of what ran in between. Where
// /proc/self/clear_refs is not writable the counter keeps the process's
// one high-water mark, which is still a valid, coarser number.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is VmHWM of the process, or the Go heap's system footprint
// where /proc is absent, so the metric is never zero.
func peakRSSMB() float64 {
	if kb, err := procStatusKB("VmHWM"); err == nil && kb > 0 {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}

// commit is the VCS revision the binary was built from, when the build
// happened inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// hostLine describes where the numbers were taken.
func hostLine(procs int) string {
	name, err := os.Hostname()
	if err != nil {
		name = "unknown"
	}
	return fmt.Sprintf("host %s (%s, %d cpus, %s/%s) %s GOMAXPROCS=%d commit %s",
		name, cpuModel(), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version(), procs, commit())
}
