package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file is the benchmark's contract in Go form: the workloads, every
// metric with its unit, direction and bound, and the map of which layer
// metric is expected to move which end-to-end metric on which workload.
// BENCHMARK.json at the repository root carries the same names for the
// driver; manifest_test.go fails when the two disagree.

// metric describes one reported number.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	Clock  string  // "host" time, "ref" (host time at the reference kernel's nominal speed), "sim" time, "mixed" (sim work per host or ref s), or "" for counts and ratios
	On     []string
	Help   string
}

// workloadInfo names one workload and why it exists.
type workloadInfo struct {
	Name string
	Why  string
}

// interaction records, before anything is measured, which end-to-end
// metrics a layer metric should move and on which workload, with the
// layer's share of CPU samples at the commit that defined the benchmark.
type interaction struct {
	Layer    []string
	EndToEnd []string
	Workload string
	Share    string
}

const (
	wlClosedHH      = "closed-hh"
	wlClosedPerfect = "closed-perfect"
	wlOpenLoadLat   = "open-loadlat"
	wlSweepLanes    = "sweep-lanes"
	wlService       = "service-roundtrip"
)

var workloadInfos = []workloadInfo{
	{wlClosedHH, "closed loop on the solo cycle loop, bandwidth-bound MUM on baseline mesh and throughput-effective double network: noc+ring about half of CPU, gpu a third"},
	{wlClosedPerfect, "closed loop on core.Perfect (noc.Ideal), LL/LH/HH class mix: bypasses the NoC so gpu, dram, cache, mem and workload do the work; a NoC change predicts no change here"},
	{wlOpenLoadLat, "open loop traffic.Runner on mesh, checkerboard mesh, ring and BaseJump from near idle to past saturation: noc+ring about 80% of CPU, gpu and mem zero, three backends"},
	{wlSweepLanes, "planned multi-seed sweep through runner.Pool.DoAllPlanned: planner, 2-wide lane kernel, fsynced journal, 2 worker slots, then a resume that must execute nothing"},
	{wlService, "tesimd in process behind httptest, closed loop with 2 clients: fresh specs (core behind service, runner and store fsync) then content-addressed repeats (pure service path)"},
}

var (
	allWorkloads = []string{wlClosedHH, wlClosedPerfect, wlOpenLoadLat, wlSweepLanes, wlService}
	closedLoops  = []string{wlClosedHH, wlClosedPerfect}
	withCore     = []string{wlClosedHH, wlClosedPerfect, wlSweepLanes, wlService}
	withNoc      = []string{wlClosedHH, wlOpenLoadLat, wlSweepLanes, wlService}
	withHops     = []string{wlClosedHH, wlOpenLoadLat}
	withPackets  = []string{wlClosedHH, wlClosedPerfect, wlOpenLoadLat}
	openOnly     = []string{wlOpenLoadLat}
	sweepOnly    = []string{wlSweepLanes}
	serviceOnly  = []string{wlService}
	pooled       = []string{wlSweepLanes, wlService}
)

// endToEnd lists the metrics a user of the simulator sees. Every workload
// reports every one of them, none is ever zero, and the plain (untraced)
// run produces them. The times are on the reference clock (calib.go); the
// same quantities as the host's clock read them are per-layer metrics
// (bench.wall_s, core.sim_cycles_per_s), because on the sandbox they do not
// repeat within any bound worth having.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, Clock: "ref", On: allWorkloads,
		Help: "median host seconds of one pass of the workload's timed phase, at the reference kernel's nominal speed"},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.10, Clock: "mixed", On: allWorkloads,
		Help: "simulated interconnect cycles (skipped ones included) of one pass per reference-speed host second"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, Clock: "ref", On: allWorkloads,
		Help: "median of at least 21 constructions of everything one pass builds (every NewSystem and NewMesh, runner.New with journal, service.New with listener), at the reference speed"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Clock: "", On: allWorkloads,
		Help: "median over passes of the process's VmHWM for that pass alone, each pass starting from a collected heap; less the reference kernel's own 1 MiB"},
}

// perLayer lists the metrics of single layers; layer = module name. The
// traced run produces them. A metric is zero on a workload outside On.
var perLayer = []metric{
	// core, timing
	{Name: "core.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/core"},
	{Name: "timing.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/timing"},
	{Name: "core.run_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "span sum per pass around System.Run, core.Run and core.RunLanes"},
	{Name: "core.new_system_ms", Unit: "ms", Better: "lower", Clock: "host", On: closedLoops, Help: "median span around core.NewSystem"},
	{Name: "core.icnt_cycles", Unit: "cycles", Better: "lower", Clock: "sim", On: allWorkloads, Help: "simulated interconnect cycles of one pass (exact repeat)"},
	{Name: "core.scalar_instrs", Unit: "instrs", Better: "higher", Clock: "sim", On: withCore, Help: "retired scalar instructions of one pass (exact repeat)"},
	{Name: "core.sim_ipc_hm", Unit: "instrs/cycle", Better: "higher", Clock: "sim", On: withCore, Help: "harmonic mean of per-run IPC (exact repeat)"},
	{Name: "core.sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Clock: "mixed", On: allWorkloads, Help: "simulated interconnect cycles per host second as the clock read it, plain passes"},
	{Name: "core.sim_instrs_per_s", Unit: "instrs/s", Better: "higher", Clock: "mixed", On: withCore, Help: "simulated scalar instructions per host second as the clock read it, plain passes"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower", On: allWorkloads, Help: "heap allocations of the process per completed operation (run, point, job)"},
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower", On: allWorkloads, Help: "heap bytes allocated by the process per completed operation"},
	{Name: "core.solo_runs", Unit: "count", Better: "lower", On: withCore, Help: "runs of one pass that went through the solo cycle loop"},
	{Name: "core.lane_runs", Unit: "count", Better: "higher", On: sweepOnly, Help: "runs of one pass that rode in a lane batch of width 2 or more"},
	// gpu, workload
	{Name: "gpu.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/gpu"},
	{Name: "gpu.ns_per_core_tick", Unit: "ns", Better: "lower", Clock: "mixed", On: withCore, Help: "gpu.cpu_s over simulated core cycles times compute cores"},
	{Name: "gpu.l1_hit_rate", Unit: "ratio", Better: "higher", Clock: "sim", On: withCore, Help: "mean L1 hit rate over the pass's runs (exact repeat)"},
	{Name: "workload.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/workload"},
	// cache, mem, dram
	{Name: "cache.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/cache"},
	{Name: "cache.l2_hit_rate", Unit: "ratio", Better: "higher", Clock: "sim", On: withCore, Help: "mean L2 hit rate over the pass's runs (exact repeat)"},
	{Name: "mem.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/mem"},
	{Name: "mem.mc_stall_frac", Unit: "ratio", Better: "lower", Clock: "sim", On: withCore, Help: "mean MC stall fraction over the pass's runs (exact repeat)"},
	{Name: "dram.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/dram"},
	{Name: "dram.efficiency", Unit: "ratio", Better: "higher", Clock: "sim", On: withCore, Help: "mean DRAM efficiency over the pass's runs (exact repeat)"},
	// noc, ring
	{Name: "noc.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withNoc, Help: "CPU seconds per pass with leaf frame in internal/noc"},
	{Name: "ring.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withNoc, Help: "CPU seconds per pass with leaf frame in internal/ring (inlined ring.Pop counts here, not in noc)"},
	{Name: "noc.ns_per_flit_hop", Unit: "ns", Better: "lower", Clock: "mixed", On: withHops, Help: "noc.cpu_s plus ring.cpu_s over flit hops"},
	{Name: "noc.flit_hops", Unit: "count", Better: "higher", Clock: "sim", On: withHops, Help: "NetStats.FlitHops of one pass (exact repeat)"},
	{Name: "noc.flit_hops_per_s", Unit: "hops/s", Better: "higher", Clock: "mixed", On: withHops, Help: "flit hops per host second as the clock read it, plain passes"},
	{Name: "noc.packets", Unit: "count", Better: "higher", Clock: "sim", On: withPackets, Help: "packets injected in one pass, where the benchmark holds the network (exact repeat)"},
	{Name: "noc.avg_latency_cycles", Unit: "cycles", Better: "lower", Clock: "sim", On: allWorkloads, Help: "mean packet latency over the pass's runs or points (exact repeat)"},
	{Name: "noc.saturated_points", Unit: "count", Better: "lower", Clock: "sim", On: openOnly, Help: "open-loop points that report Saturated (exact repeat)"},
	{Name: "noc.ticks", Unit: "count", Better: "lower", On: openOnly, Help: "Network.Tick calls per pass seen by the decorator"},
	{Name: "noc.tick_ns", Unit: "ns", Better: "lower", Clock: "host", On: openOnly, Help: "mean host ns per Network.Tick"},
	{Name: "noc.inject_ns", Unit: "ns", Better: "lower", Clock: "host", On: openOnly, Help: "mean host ns per Network.TryInject"},
	{Name: "noc.skipped_cycles", Unit: "cycles", Better: "higher", Clock: "sim", On: openOnly, Help: "cycles credited through Network.SkipAhead per pass"},
	{Name: "noc.skip_frac", Unit: "ratio", Better: "higher", Clock: "sim", On: openOnly, Help: "skipped cycles over ticked plus skipped"},
	// traffic
	{Name: "traffic.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: openOnly, Help: "CPU seconds per pass with leaf frame in internal/traffic"},
	{Name: "traffic.run_s", Unit: "s", Better: "lower", Clock: "host", On: openOnly, Help: "span sum per pass around traffic.Runner.Run"},
	{Name: "traffic.points", Unit: "count", Better: "higher", On: openOnly, Help: "open-loop points per pass"},
	// runner
	{Name: "runner.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: pooled, Help: "CPU seconds per pass with leaf frame in internal/runner"},
	{Name: "runner.runs_per_s", Unit: "runs/s", Better: "higher", Clock: "host", On: sweepOnly, Help: "completed ok runs of the sweep per host second of the whole pass (plan, submit, resume), plain passes"},
	{Name: "runner.submit_wall_s", Unit: "s", Better: "lower", Clock: "host", On: sweepOnly, Help: "span around the fresh Pool.DoAllPlanned"},
	{Name: "runner.kernel_s", Unit: "s", Better: "lower", Clock: "host", On: sweepOnly, Help: "span sum per pass inside the Run and RunLanes hooks"},
	{Name: "runner.slot_util", Unit: "ratio", Better: "higher", On: sweepOnly, Help: "runner.kernel_s over 2 slots times runner.submit_wall_s"},
	{Name: "runner.plan_us", Unit: "us", Better: "lower", Clock: "host", On: sweepOnly, Help: "median host us of Planner.Plan over the sweep"},
	{Name: "runner.lane_batches", Unit: "count", Better: "higher", On: sweepOnly, Help: "RunLanes hook calls per pass"},
	{Name: "runner.lane_width_mean", Unit: "count", Better: "higher", On: sweepOnly, Help: "mean seeds per RunLanes hook call"},
	{Name: "runner.journal_syncs", Unit: "count", Better: "lower", On: sweepOnly, Help: "fsyncs of the checkpoint journal per pass"},
	{Name: "runner.journal_sync_ms_p50", Unit: "ms", Better: "lower", Clock: "host", On: sweepOnly, Help: "median host ms of one journal fsync"},
	{Name: "runner.journal_bytes", Unit: "count", Better: "lower", On: sweepOnly, Help: "bytes written to the journal per pass"},
	{Name: "runner.resume_ms", Unit: "ms", Better: "lower", Clock: "host", On: sweepOnly, Help: "median span around the Resume pool: runner.New, DoAllPlanned from the journal, Close"},
	// service
	{Name: "service.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: serviceOnly, Help: "CPU seconds per pass with leaf frame in internal/service"},
	{Name: "service.kernel_s", Unit: "s", Better: "lower", Clock: "host", On: serviceOnly, Help: "span sum per pass inside the service's Run hook"},
	{Name: "service.overhead_ms_p50", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "median of fresh round trip minus its kernel span"},
	{Name: "service.store_syncs", Unit: "count", Better: "lower", On: serviceOnly, Help: "fsyncs of the result store per pass"},
	{Name: "service.store_sync_ms_p50", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "median host ms of one store fsync"},
	{Name: "service.shed_429", Unit: "count", Better: "lower", On: serviceOnly, Help: "submissions shed with 429 per pass"},
	{Name: "service.repeat_hits", Unit: "count", Better: "higher", On: serviceOnly, Help: "phase B round trips served without executing a run"},
	{Name: "service.jobs_per_s", Unit: "jobs/s", Better: "higher", Clock: "host", On: serviceOnly, Help: "fresh jobs per host second of phase A alone, median over plain passes"},
	{Name: "service.fresh_p50_ms", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "median submit-to-result of fresh specs, pooled over the plain passes (n printed)"},
	{Name: "service.fresh_p90_ms", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "p90 submit-to-result of fresh specs, pooled over the plain passes (n printed)"},
	{Name: "service.repeat_p50_ms", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "median submit-to-result of repeats, pooled over the plain passes (n printed)"},
	{Name: "service.repeat_p99_ms", Unit: "ms", Better: "lower", Clock: "host", On: serviceOnly, Help: "p99 submit-to-result of repeats, pooled over the plain passes (n printed)"},
	// support packages
	{Name: "addr.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: withCore, Help: "CPU seconds per pass with leaf frame in internal/addr"},
	{Name: "stats.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass with leaf frame in internal/stats"},
	{Name: "xrand.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass with leaf frame in internal/xrand"},
	{Name: "fault.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass with leaf frame in internal/fault"},
	{Name: "iofault.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: pooled, Help: "CPU seconds per pass with leaf frame in internal/iofault"},
	// host
	{Name: "go_runtime.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass in runtime, internal/runtime, sync and syscall (GC, allocation, scheduler, fsync)"},
	{Name: "go_runtime.gc_cycles", Unit: "count", Better: "lower", On: allWorkloads, Help: "completed GC cycles per pass"},
	{Name: "stdlib.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass in the rest of the standard library (net/http, encoding/json, ...)"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass in the benchmark's own code"},
	{Name: "other.cpu_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "CPU seconds per pass whose leaf frame has no Go package (vdso, unknown)"},
	{Name: "trace.cpu_samples", Unit: "count", Better: "higher", On: allWorkloads, Help: "CPU profile samples behind the cpu_s figures, all traced passes"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", On: allWorkloads, Help: "median traced pass wall over median plain pass wall, minus 1"},
	{Name: "bench.wall_s", Unit: "s", Better: "lower", Clock: "host", On: allWorkloads, Help: "median plain pass in host seconds as the clock read them: the issue's wall_s, which does not repeat on the sandbox"},
	{Name: "bench.ref_speed", Unit: "ratio", Better: "higher", On: allWorkloads, Help: "median reference-kernel factor of the plain passes (wall_s over bench.wall_s, pass by pass): nominal over measured kernel time, below 1 on a slow host"},
	{Name: "bench.failed_frac", Unit: "ratio", Better: "lower", On: nil, Help: "failed over attempted operations and output checks; 0 on every accepted run"},
}

// interactions is the prediction written down before measuring. Shares are
// of CPU samples at the commit that defined the benchmark.
var interactions = []interaction{
	{[]string{"noc.cpu_s", "ring.cpu_s", "noc.ns_per_flit_hop"}, []string{"sim_cycles_per_s", "wall_s"}, wlOpenLoadLat, "noc+ring 80-82% of CPU"},
	{[]string{"noc.cpu_s", "ring.cpu_s", "noc.ns_per_flit_hop"}, []string{"sim_cycles_per_s", "wall_s"}, wlClosedHH, "noc+ring 43-52% of CPU"},
	{[]string{"noc.cpu_s", "ring.cpu_s"}, nil, wlClosedPerfect, "2-4% of CPU: a NoC change predicts no change"},
	{[]string{"gpu.cpu_s", "gpu.ns_per_core_tick"}, []string{"sim_cycles_per_s", "wall_s"}, wlClosedPerfect, "gpu about 57% of CPU (Core.issue, warpState.ready, memoryUnit)"},
	{[]string{"gpu.cpu_s", "gpu.ns_per_core_tick"}, []string{"sim_cycles_per_s", "wall_s"}, wlClosedHH, "gpu about 38% of CPU"},
	{[]string{"gpu.cpu_s"}, nil, wlOpenLoadLat, "zero: the open loop has no cores"},
	{[]string{"dram.cpu_s", "cache.cpu_s", "mem.cpu_s"}, []string{"wall_s"}, wlClosedPerfect, "about 19% of CPU together"},
	{[]string{"core.cpu_s", "timing.cpu_s"}, []string{"wall_s"}, wlClosedHH, "2-4% of CPU; merging the two cycle loops must leave wall_s flat here (solo loop)"},
	{[]string{"core.cpu_s", "timing.cpu_s", "core.lane_runs"}, []string{"wall_s", "sim_cycles_per_s"}, wlSweepLanes, "and flat here (lane loop)"},
	{[]string{"runner.slot_util", "runner.lane_width_mean", "runner.journal_sync_ms_p50", "runner.runs_per_s"}, []string{"wall_s"}, wlSweepLanes, "slot utilisation sets the sweep's wall clock; the journal fsync is a small term"},
	{[]string{"service.overhead_ms_p50", "service.store_sync_ms_p50", "service.repeat_p50_ms", "service.jobs_per_s"}, []string{"wall_s"}, wlService, "fresh latency minus kernel, and the repeat phase; fresh latency is otherwise core"},
	{[]string{"go_runtime.cpu_s", "core.allocs_per_run"}, []string{"wall_s", "peak_rss_mb"}, wlOpenLoadLat, "go_runtime about 13% of CPU, which the 0 allocs/op kernel gate does not see"},
	{[]string{"go_runtime.cpu_s", "core.allocs_per_run"}, []string{"wall_s", "peak_rss_mb"}, wlClosedPerfect, "allocation and GC everywhere else"},
}

// accuracyNote is printed in place of an error figure: this benchmark
// measures the simulator's host speed, not the model.
const accuracyNote = "model accuracy against the paper is not measured here: EXPERIMENTS.md carries it (headline -0.6% vs the paper's +25.4%)"

func findMetric(list []metric, name string) (metric, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (m metric) on(workload string) bool { return slices.Contains(m.On, workload) }

func clockLabel(c string) string {
	if c == "" {
		return "count"
	}
	return c
}

// printList writes the manifest: what -list shows.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadInfos {
		fmt.Fprintf(w, "  %-18s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (plain run; every workload reports every one):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-12s %-6s bound %.2f  %-5s [%s]  %s\n",
			m.Name, m.Unit, m.Better, m.Bound, clockLabel(m.Clock), strings.Join(m.On, ","), m.Help)
	}
	fmt.Fprintln(w, "\nper-layer metrics (traced run; zero on a workload outside the list):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %-12s %-6s %-5s [%s]  %s\n",
			m.Name, m.Unit, m.Better, clockLabel(m.Clock), strings.Join(m.On, ","), m.Help)
	}
	fmt.Fprintln(w, "\ninteractions (layer metric -> end-to-end metric @ workload):")
	for _, it := range interactions {
		to := "no change"
		if len(it.EndToEnd) > 0 {
			to = strings.Join(it.EndToEnd, ", ")
		}
		fmt.Fprintf(w, "  %s -> %s @ %s (%s)\n", strings.Join(it.Layer, " + "), to, it.Workload, it.Share)
	}
	fmt.Fprintln(w, "\n"+accuracyNote)
}
