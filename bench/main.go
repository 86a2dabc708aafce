// Command bench is the repository's benchmark: the harness performance
// claims are made against. One invocation runs one workload in its own
// process, checks its outputs, and prints every metric by name with its
// unit; the last line of standard output is one JSON object for the driver.
//
//	bash bench/run.sh --workload closed-hh --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload open-loadlat --seed 1 --seconds 16 --trace 1 --trace-out spans.jsonl
//	bash bench/run.sh -list
//	bash bench/run.sh -selfcheck
//
// It measures every layer from outside, through public entry points and the
// seams that already exist; see README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	defaultSeconds = 16
	fullMinPasses  = 2
	fullSetupReps  = 21
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: "+strings.Join(allWorkloads, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "how long to repeat the workload's pass")
	trace := fs.Int("trace", 0, "1 = plain passes, then traced passes that produce the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
	workdir := fs.String("workdir", "", "directory for journals, stores and spans (default: a temp dir, removed on exit)")
	list := fs.Bool("list", false, "print every workload, metric and interaction, then exit")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of plain runs per workload and compare them against the bounds")
	n := fs.Int("n", 10, "selfcheck: runs per workload in each set")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	if *selfcheck {
		return selfCheck(stdout, stderr, *n, *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}

	dir, cleanup, err := workDir(*workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	if *traceOut == "" && *workdir != "" {
		*traceOut = filepath.Join(dir, "spans.jsonl")
	}

	procs := pinProcs()
	rep, err := measure(runSpec{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: dir, traceOut: *traceOut, minPasses: fullMinPasses, setupReps: fullSetupReps,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := printReport(stdout, rep, procs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// workDir returns the directory temp files go to and how to remove it. An
// explicit directory is kept; the default is a temp dir removed on exit.
func workDir(explicit string) (dir string, cleanup func(), err error) {
	if explicit != "" {
		return explicit, func() {}, os.MkdirAll(explicit, 0o755)
	}
	dir, err = os.MkdirTemp("", "tesim-bench-")
	return dir, func() { os.RemoveAll(dir) }, err
}

// digestPrefix starts the report line that carries the digest of what the
// run simulated; the selfcheck reads it back to compare processes.
const digestPrefix = "simulated outputs: "

// resultLine is the object the driver reads from the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport writes the human-readable report, then the result line.
func printReport(w io.Writer, rep *report, procs int) error {
	defs, mode := endToEnd, "plain"
	if rep.spec.trace {
		defs, mode = perLayer, "traced"
	}
	fmt.Fprintln(w, hostLine(procs))
	fmt.Fprintf(w, "workload %s seed %d: %s run, %d plain passes", rep.spec.workload, rep.spec.seed, mode, len(rep.walls))
	if rep.spec.trace {
		fmt.Fprintf(w, ", %d traced passes, %d spans", rep.traced, rep.spans)
		if rep.spec.traceOut != "" {
			fmt.Fprintf(w, " in %s", rep.spec.traceOut)
		}
	}
	fmt.Fprintf(w, "\n%s%s (identical on every pass)\n", digestPrefix, rep.digest)
	fmt.Fprintf(w, "plain pass wall seconds at the reference speed: %.3f\n", rep.walls)
	fmt.Fprintf(w, "plain pass wall seconds as the clock read them:  %.3f\n", rep.rawWalls)
	if rep.freshN > 0 {
		fmt.Fprintf(w, "service latency percentiles are over n=%d fresh and n=%d repeat round trips of the plain passes\n", rep.freshN, rep.repeatN)
	}
	fmt.Fprintln(w, accuracyNote)

	if rep.spec.trace && rep.cpuTotal > 0 {
		fmt.Fprintf(w, "CPU samples by leaf-frame package (%.2f s over %d traced passes):\n", rep.cpuTotal, rep.traced)
		names := make([]string, 0, len(rep.layers))
		for name := range rep.layers {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return rep.layers[names[i]] > rep.layers[names[j]] })
		for _, name := range names {
			fmt.Fprintf(w, "  %-12s %7.3f s  %5.1f%%\n", name, rep.layers[name], 100*rep.layers[name]/rep.cpuTotal)
		}
	}

	out := resultLine{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{},
	}
	for _, d := range defs {
		v := rep.metrics[d.Name]
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-28s %16.6g %-12s (%s, %s is better)\n", d.Name, v, d.Unit, clockLabel(d.Clock), d.Better)
	}
	for _, msg := range rep.msgs {
		fmt.Fprintln(w, "FAILED:", msg)
	}
	fmt.Fprintf(w, "operations and output checks: %d attempted, %d failed\n", rep.attempted, rep.failed)
	line, err := json.Marshal(out)
	if err != nil { // a NaN or Inf metric: report no result at all
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
