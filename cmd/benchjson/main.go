// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON capture and appends it to a capture file, so the repository
// records its performance trajectory (ns/op, B/op, allocs/op and custom
// metrics like hm_speedup_pct) across PRs instead of losing it in CI logs.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -label after-refactor -out BENCH_2026-08-06.json
//
// The output file holds {"captures": [...]}: one entry per invocation, in
// order, each with its label, timestamp, toolchain, host parallelism and
// benchmark table, plus a per-family geometric-mean summary.
// scripts/bench.sh wraps the whole flow.
//
// With -compare it reads two capture files instead (each optionally
// suffixed "#label" to pick a capture; default the last one) and prints the
// per-family geometric-mean delta of ns/op and allocs/op over the rows both
// share, exiting 1 when any family regresses by more than -threshold
// percent:
//
//	benchjson -compare BENCH_2026-10-15.json#before-one-loop BENCH_2026-10-15.json#after-one-loop
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Procs is the GOMAXPROCS the row ran under (go test's "-N" name
	// suffix).
	Procs   int                `json:"procs,omitempty"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value (ns/op, B/op, allocs/op, ...)
}

// FamilySummary aggregates one benchmark family (the name up to the first
// '/' or lane suffix) into a geometric-mean ns/op, so a capture can be
// compared at a glance without reading every row.
type FamilySummary struct {
	Family         string  `json:"family"`
	Count          int     `json:"count"`
	GeomeanNsPerOp float64 `json:"geomean_ns_per_op"`
}

// Capture is one benchjson invocation.
type Capture struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	Go    string `json:"go"`
	// Host names the capturing machine ("cpu model, goos/goarch"): a
	// before/after pair only means something on one host.
	Host string `json:"host,omitempty"`
	// GoMaxProcs and NumCPU record the capturing host's parallelism.
	GoMaxProcs int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Benchmarks []Benchmark     `json:"benchmarks"`
	Summary    []FamilySummary `json:"summary,omitempty"`
}

// File is the on-disk shape of a capture file.
type File struct {
	Captures []Capture `json:"captures"`
}

func main() {
	label := flag.String("label", "capture", "label for this capture (e.g. before-refactor)")
	out := flag.String("out", "", "capture file to append to (default: stdout, single capture)")
	compare := flag.Bool("compare", false, "compare two capture files given as arguments: old.json[#label] new.json[#label]")
	threshold := flag.Float64("threshold", 5, "with -compare: noise threshold in percent; a larger per-family slowdown fails")
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold, os.Stdout))
	}

	benches, host, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	deriveSkipSpeedups(benches)
	deriveLaneSpeedups(benches)
	cap := Capture{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		Host:       host,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: benches,
		Summary:    summarize(benches),
	}
	for _, s := range cap.Summary {
		fmt.Fprintf(os.Stderr, "benchjson: %-28s geomean %s ns/op over %d benchmark(s)\n",
			s.Family, strconv.FormatFloat(s.GeomeanNsPerOp, 'f', -1, 64), s.Count)
	}

	var f File
	if *out != "" {
		if raw, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(raw, &f); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s is not a capture file: %v\n", *out, err)
				os.Exit(1)
			}
		}
	}
	f.Captures = append(f.Captures, cap)
	enc, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended capture %q (%d benchmarks) to %s\n",
		cap.Label, len(benches), *out)
}

// parse extracts Benchmark lines ("BenchmarkX-8  N  v1 unit1  v2 unit2 ...")
// from go test output, passing everything else through to stderr so a piped
// run still shows progress and failures. The host string is the CPU model
// from the first "cpu:" header go test prints, plus this process's
// goos/goarch (benchjson runs on the capturing host).
func parse(r *os.File) ([]Benchmark, string, error) {
	var out []Benchmark
	var cpu string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			if v, ok := strings.CutPrefix(line, "cpu: "); ok && cpu == "" {
				cpu = v
			}
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		// Record the -GOMAXPROCS suffix as Procs, then strip it from the
		// name so captures on different hosts compare.
		name, procs := splitProcs(fields[0])
		b := Benchmark{
			Name:       name,
			Iterations: iters,
			Procs:      procs,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		out = append(out, b)
	}
	host := runtime.GOOS + "/" + runtime.GOARCH
	if cpu != "" {
		host = cpu + ", " + host
	}
	return out, host, sc.Err()
}

// deriveSkipSpeedups adds a speedup_vs_noskip metric to every "<base>/skip"
// benchmark with a "<base>/noskip" sibling in the same capture: the
// reference mode's ns/op divided by the skipping mode's. In the closed loop
// that is dormancy elision against ticking every component on every edge;
// in the open loop, the drain-phase skip against stepping the drain. Both
// are single-threaded work avoidance, so the ratio holds on any host.
func deriveSkipSpeedups(benches []Benchmark) {
	noskip := make(map[string]float64)
	for _, b := range benches {
		if base, ok := strings.CutSuffix(b.Name, "/noskip"); ok {
			noskip[base] = b.Metrics["ns/op"]
		}
	}
	for i := range benches {
		base, ok := strings.CutSuffix(benches[i].Name, "/skip")
		if !ok {
			continue
		}
		ref, ok := noskip[base]
		ns := benches[i].Metrics["ns/op"]
		if !ok || ref <= 0 || ns <= 0 {
			continue
		}
		benches[i].Metrics["speedup_vs_noskip"] = ref / ns
	}
}

// laneSuffix matches the "-l<N>" lane-count suffix the lane-batched kernel
// benchmarks put on their sub-benchmark names (after the GOMAXPROCS suffix
// has been stripped).
var laneSuffix = regexp.MustCompile(`^(.*)-l(\d+)$`)

// deriveLaneSpeedups adds a speedup_vs_l1 metric to every benchmark named
// "<base>-l<N>" (N > 1) that has a "<base>-l1" solo baseline in the same
// capture. Lane benchmarks report ns/op per batch, so the per-seed ratio is
// base_ns × N / ns: >1 means each seed got cheaper when batched. Lane
// batching amortizes the cycle loop and shares idle-skip horizons across
// replicas (work elision, not parallelism), so a single-core measurement is
// real.
func deriveLaneSpeedups(benches []Benchmark) {
	solo := make(map[string]float64)
	for _, b := range benches {
		if m := laneSuffix.FindStringSubmatch(b.Name); m != nil && m[2] == "1" {
			solo[m[1]] = b.Metrics["ns/op"]
		}
	}
	for i := range benches {
		m := laneSuffix.FindStringSubmatch(benches[i].Name)
		if m == nil || m[2] == "1" {
			continue
		}
		lanes, err := strconv.Atoi(m[2])
		if err != nil || lanes <= 1 {
			continue
		}
		base, ok := solo[m[1]]
		ns := benches[i].Metrics["ns/op"]
		if !ok || base <= 0 || ns <= 0 {
			continue
		}
		benches[i].Metrics["speedup_vs_l1"] = base * float64(lanes) / ns
	}
}

// summarize returns one geometric-mean ns/op entry per benchmark family,
// sorted by family name. The family is the benchmark name with its
// sub-benchmark path and any lane suffix removed, so e.g.
// "BenchmarkLaneKernel/mesh-l4" and "...-l1" aggregate together.
func summarize(benches []Benchmark) []FamilySummary {
	type acc struct {
		logSum float64
		n      int
	}
	fams := make(map[string]*acc)
	for _, b := range benches {
		ns := b.Metrics["ns/op"]
		if ns <= 0 {
			continue
		}
		f := family(b.Name)
		a := fams[f]
		if a == nil {
			a = &acc{}
			fams[f] = a
		}
		a.logSum += math.Log(ns)
		a.n++
	}
	out := make([]FamilySummary, 0, len(fams))
	for f, a := range fams {
		out = append(out, FamilySummary{
			Family:         f,
			Count:          a.n,
			GeomeanNsPerOp: math.Exp(a.logSum / float64(a.n)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// family strips the sub-benchmark path and any lane suffix from a name.
func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if m := laneSuffix.FindStringSubmatch(name); m != nil {
		name = m[1]
	}
	return name
}

// splitProcs splits a trailing "-N" GOMAXPROCS suffix off a benchmark name,
// returning the bare name and N. go test omits the suffix entirely when
// GOMAXPROCS is 1, so a name without one ran single-core.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
