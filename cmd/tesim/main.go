// Command tesim runs one closed-loop simulation: a Table I benchmark (or
// all of them) on one of the paper's network configurations, printing the
// run's throughput and memory-system statistics. Multi-benchmark runs go
// through the resilient worker pool (-jobs, -run-timeout): a
// wedged or panicking run becomes a DNF row instead of a hung or dead
// process, and rows always print in catalog order.
//
// Usage:
//
//	tesim -bench MUM -config TE
//	tesim -bench all -config baseline -scale 0.5 -jobs 8 -run-timeout 10m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/noc"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "MUM", `benchmark abbreviation from Table I, or "all"`)
	config := flag.String("config", "baseline", "network configuration: "+strings.Join(configAliases(), "|"))
	topology := flag.String("topology", "mesh",
		"network substrate for topology-neutral configs: mesh|ring|basejump (named configs like -config ring already pick theirs)")
	scale := flag.Float64("scale", 1.0, "kernel length scale")
	seed := flag.Uint64("seed", 1, "simulation seed")
	sched := flag.String("sched", "rr", "warp scheduler: rr|gto")
	faultRate := flag.Float64("fault-rate", 0, "network fault injection master rate (0 disables)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injector seed (independent of -seed)")
	watchdog := flag.Uint64("watchdog-cycles", fault.DefaultConfig().WatchdogCycles,
		"deadlock watchdog no-movement window in icnt cycles (0 disables health checks)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	lanes := flag.Int("lanes", 1,
		"seed replicas per run (-seed, -seed+1, …); the pool runs them as lane batches whose width it plans from -jobs and GOMAXPROCS, each replica bit-identical to a solo run of its seed")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock deadline (0 = none); expired runs become DNF rows")
	pprofOut := prof.AddFlags()
	flag.Parse()

	if *faultRate < 0 || *faultRate > 1 {
		fmt.Fprintf(os.Stderr, "tesim: -fault-rate %g outside [0,1]\n", *faultRate)
		os.Exit(2)
	}
	var build func(workload.Profile) core.Config
	for _, d := range core.DesignPoints() {
		if d.Alias == strings.ToLower(*config) {
			build = d.Build
		}
	}
	if build == nil {
		fmt.Fprintf(os.Stderr, "tesim: unknown config %q (have %s)\n", *config, strings.Join(configAliases(), ", "))
		os.Exit(2)
	}
	kind, err := noc.ParseBackendKind(strings.ToLower(*topology))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tesim:", err)
		os.Exit(2)
	}
	var profiles []workload.Profile
	if *bench == "all" {
		profiles = workload.Catalog()
	} else {
		p, err := workload.ByAbbr(strings.ToUpper(*bench))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tesim:", err)
			os.Exit(2)
		}
		profiles = []workload.Profile{p}
	}

	// SIGINT/SIGTERM cancel the sweep; in-flight runs finish as
	// "canceled" DNF rows and the partial table still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	nLanes := *lanes
	if nLanes < 1 {
		nLanes = 1
	}
	pool, err := runner.New(ctx, runner.Options{
		Jobs:       *jobs,
		RunTimeout: *runTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tesim:", err)
		os.Exit(2)
	}

	// Each benchmark expands into nLanes seed replicas (-seed, -seed+1, …);
	// the pool's planner coalesces the replicas into lane batches.
	type runRow struct {
		prof workload.Profile
		seed uint64
	}
	rows := make([]runRow, 0, len(profiles)*nLanes)
	cfgs := make([]core.Config, 0, len(profiles)*nLanes)
	for _, p := range profiles {
		cfg, err := build(p).WithTopology(kind)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tesim: -topology %s with -config %s: %v\n", kind, *config, err)
			os.Exit(2)
		}
		cfg = cfg.ScaleWork(*scale)
		if strings.ToLower(*sched) == "gto" {
			cfg.Core.Scheduler = gpu.SchedGTO
		}
		if *faultRate > 0 {
			cfg = cfg.WithFaults(*faultRate, *faultSeed)
		}
		cfg = cfg.WithWatchdog(*watchdog)
		for l := 0; l < nLanes; l++ {
			c := cfg
			c.Seed = *seed + uint64(l)
			rows = append(rows, runRow{prof: p, seed: c.Seed})
			cfgs = append(cfgs, c)
		}
	}
	if err := pprofOut.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "tesim:", err)
		os.Exit(2)
	}
	outs := pool.Do(ctx, cfgs...)
	pprofOut.Stop() // profile covers the simulations, not the report

	headers := []string{"bench", "config"}
	if nLanes > 1 {
		headers = append(headers, "seed")
	}
	headers = append(headers, "IPC", "icnt cycles", "net lat",
		"MC stall", "DRAM eff", "L1 hit", "L2 hit", "status")
	if *faultRate > 0 {
		headers = append(headers, "retx", "dropped", "avg retries")
	}
	tb := stats.NewTable("tesim results", headers...)
	var ipcs []float64
	dnf := 0
	for i, rr := range rows {
		p := rr.prof
		out := outs[i]
		res := out.Result
		if !out.OK() {
			// Degraded run (deadlock, invariant, cycle cap, timeout, panic,
			// config error): report the row plus any diagnostic and keep
			// going.
			dnf++
			fmt.Fprintf(os.Stderr, "tesim: %s did not finish: %s\n", p.Abbr, res.Status)
			var he *fault.HangError
			if errors.As(out.Err, &he) && !he.Diag.Empty() {
				fmt.Fprintln(os.Stderr, he.Diag.String())
			}
			if out.Stack != "" {
				fmt.Fprintln(os.Stderr, out.Stack)
			}
		} else {
			ipcs = append(ipcs, res.IPC)
		}
		status := res.Status
		if status == "" {
			status = core.StatusOK
		}
		row := []interface{}{p.Abbr, res.Config}
		if nLanes > 1 {
			row = append(row, rr.seed)
		}
		row = append(row, res.IPC, res.IcntCycles, res.AvgNetLatency,
			fmt.Sprintf("%.1f%%", 100*res.MCStallFraction),
			fmt.Sprintf("%.2f", res.DRAMEfficiency),
			fmt.Sprintf("%.2f", res.L1HitRate),
			fmt.Sprintf("%.2f", res.L2HitRate),
			status)
		if *faultRate > 0 {
			row = append(row, res.RetxPackets, res.DroppedPackets, fmt.Sprintf("%.3f", res.AvgRetries))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)
	if len(ipcs) > 1 {
		fmt.Printf("harmonic mean IPC: %.2f\n", stats.HarmonicMean(ipcs))
	}
	if dnf > 0 {
		fmt.Printf("%d of %d run(s) did not finish\n", dnf, len(rows))
		os.Exit(1)
	}
}

// configAliases lists the -config spellings of core.DesignPoints in table
// order.
func configAliases() []string {
	var aliases []string
	for _, d := range core.DesignPoints() {
		aliases = append(aliases, d.Alias)
	}
	return aliases
}
