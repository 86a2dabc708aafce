// Command experiments regenerates the paper's evaluation tables and
// figures. Each figure/table has an identifier (fig2..fig21, table6,
// headline); "all" runs the full evaluation in paper order. The separate
// "explore" experiment scores every candidate of the design-space grid and
// prints the exact throughput-effectiveness Pareto frontier
// (-frontier-json writes the machine-readable result); it is too expensive
// to ride along in "all", so it only runs when named.
//
// Simulations run through a resilient worker pool: -jobs bounds
// concurrency (tables are byte-identical for any value), -run-timeout
// turns wedged runs into DNF rows, and -checkpoint/-resume journal
// finished runs so an interrupted sweep (SIGINT/SIGTERM included) picks up
// where it left off.
//
// After each experiment id, one JSON line on stderr reports what it cost:
// {"experiment":…,"wall_s":…,"runs":…,"executed":…,"icnt_cycles":…}, the
// deltas of the suite's outcome table, executed count and interconnect
// cycles across that id. stdout stays a pure function of the flags.
//
// Usage:
//
//	experiments [-scale f] [-bench AES,MUM,...] [-jobs N] [-seeds 1,2,...]
//	            [-run-timeout d] [-checkpoint file [-resume]] [-v]
//	            all|fig7|table6|...
//
// Exit status: 0 on a clean sweep, 1 when any run did not finish (so CI
// catches silently degraded sweeps), 130 when interrupted.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/stats"
)

func main() {
	scale := flag.Float64("scale", 1.0, "kernel length scale (lower = faster, less accurate)")
	bench := flag.String("bench", "", "comma-separated benchmark abbreviations (default: all 31)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	seeds := flag.String("seeds", "",
		"comma-separated traffic seeds for seed-averaged sweeps (resilience, explore); replicas run as lane batches")
	frontierJSON := flag.String("frontier-json", "",
		"write the explore experiment's machine-readable frontier to this file")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock deadline (0 = none); expired runs become DNF rows")
	checkpoint := flag.String("checkpoint", "", "JSONL journal recording each finished run (fsynced per record)")
	resume := flag.Bool("resume", false, "reload -checkpoint and skip finished runs")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	pprofOut := prof.AddFlags()
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: experiments [flags] %s|explore|all\n", strings.Join(experiments.IDs(), "|"))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume needs -checkpoint")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweep: in-flight runs finish as
	// "canceled" DNFs, the journal is already fsynced per record, and we
	// exit with a partial-progress summary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.Options{
		Scale:      *scale,
		Jobs:       *jobs,
		RunTimeout: *runTimeout,
		Checkpoint: *checkpoint,
		Resume:     *resume,
		Context:    ctx,
	}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *seeds != "" {
		for _, s := range strings.Split(*seeds, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -seeds: %v\n", err)
				os.Exit(2)
			}
			opts.Seeds = append(opts.Seeds, v)
		}
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	suite, err := experiments.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *resume {
		if n := suite.SkippedJournalLines(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: skipped %d torn checkpoint line(s); those runs re-execute\n", n)
		}
		if n := suite.QuarantinedJournalLines(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: quarantined %d corrupt checkpoint record(s) to %s; those runs re-execute\n",
				n, runner.QuarantinePath(*checkpoint))
		}
	}

	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	if err := pprofOut.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		before, t0 := snapshot(suite), time.Now()
		rep, err := suite.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			suite.Close()
			os.Exit(1)
		}
		fmt.Println(rep)
		fmt.Fprintf(os.Stderr, "%s\n", costLine(id, time.Since(t0), before, snapshot(suite)))
	}
	pprofOut.Stop() // profile covers the sweep, not the summary

	// Machine-readable frontier for downstream tooling.
	if f := suite.Frontier(); f != nil && *frontierJSON != "" {
		data, err := f.JSON()
		if err == nil {
			err = os.WriteFile(*frontierJSON, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: frontier-json:", err)
			suite.Close()
			os.Exit(1)
		}
		fmt.Printf("frontier written to %s (%d points)\n", *frontierJSON, len(f.Points))
	}

	// Closing summary: per-status outcome counts and the DNF rows excluded
	// from the aggregates.
	var outcomes stats.Outcomes
	for _, o := range suite.Outcomes() {
		outcomes.Observe(o.Result.Status)
	}
	dnf := suite.DNF()
	if outcomes.Total() > 0 {
		// stdout stays a pure function of the flags, so two runs of one
		// sweep diff clean; the wall-clock time goes to stderr.
		fmt.Printf("%s (%d simulated here)\n", outcomes.Summary(), suite.Executed())
		fmt.Fprintf(os.Stderr, "experiments: sweep took %.0fs\n", time.Since(start).Seconds())
	}
	if len(dnf) > 0 {
		fmt.Printf("%d run(s) did not finish (excluded from aggregates):\n", len(dnf))
		for _, line := range dnf {
			fmt.Println("  " + line)
		}
	}
	if err := suite.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: checkpoint:", err)
		os.Exit(1)
	}
	if ctx.Err() != nil {
		where := ""
		if *checkpoint != "" {
			where = fmt.Sprintf("; resume with -checkpoint %s -resume", *checkpoint)
		}
		fmt.Printf("sweep interrupted: %d run(s) completed%s\n",
			outcomes.Total()-outcomes.Count(core.StatusCanceled), where)
		os.Exit(130)
	}
	if len(dnf) > 0 {
		os.Exit(1)
	}
}

// tally is the suite state one cost line differences: the outcome table's
// size and interconnect cycles, and the request and executed counts.
type tally struct {
	runs, requests, executed int
	cycles                   uint64
}

func snapshot(s *experiments.Suite) tally {
	t := tally{requests: s.Requests(), executed: s.Executed()}
	for _, o := range s.Outcomes() {
		t.runs++
		t.cycles += o.Result.IcntCycles
	}
	return t
}

// costLine renders one experiment's cost as a JSON line. runs counts the
// outcomes the experiment added to the suite's table, executed the
// simulations it ran, and hits the runs it asked for that the memo table
// or the checkpoint journal served: a configuration an earlier experiment
// already ran adds to hits only.
func costLine(id string, wall time.Duration, before, after tally) []byte {
	line, _ := json.Marshal(struct {
		Experiment string  `json:"experiment"`
		WallS      float64 `json:"wall_s"`
		Runs       int     `json:"runs"`
		Executed   int     `json:"executed"`
		Hits       int     `json:"hits"`
		IcntCycles uint64  `json:"icnt_cycles"`
	}{id, wall.Seconds(), after.runs - before.runs, after.executed - before.executed,
		(after.requests - before.requests) - (after.executed - before.executed),
		after.cycles - before.cycles})
	return line
}
