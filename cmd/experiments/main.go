// Command experiments regenerates the paper's evaluation tables and
// figures. Each figure/table has an identifier (fig2..fig21, table6,
// headline); "all" runs the full evaluation in paper order. The separate
// "explore" experiment sweeps the full design-space grid through
// successive-halving rungs toward a throughput-effectiveness Pareto
// frontier (-frontier-json writes the machine-readable result); it is too
// expensive to ride along in "all", so it only runs when named.
//
// Simulations run through a resilient worker pool: -jobs bounds
// concurrency (tables are byte-identical for any value), -run-timeout
// turns wedged runs into DNF rows, and -checkpoint/-resume journal
// finished runs so an interrupted sweep (SIGINT/SIGTERM included) picks up
// where it left off.
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

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
		rep, err := suite.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			suite.Close()
			os.Exit(1)
		}
		fmt.Println(rep)
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

	// Closing summary: per-status outcome counts, the explorer's
	// early-termination savings, and the DNF rows excluded from the
	// aggregates.
	var outcomes stats.Outcomes
	for _, o := range suite.Outcomes() {
		outcomes.Observe(o.Result.Status)
	}
	if f := suite.Frontier(); f != nil {
		outcomes.AddEarlyTermination(f.KilledEarly, f.SimulatedCycles, f.ExhaustiveCycles)
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
			outcomes.Total()-outcomes.Count("canceled"), where)
		os.Exit(130)
	}
	if len(dnf) > 0 {
		os.Exit(1)
	}
}
