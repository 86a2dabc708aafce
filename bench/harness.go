package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// env is what a workload sees: the seed its inputs derive from, the size,
// where temp files go, the tracer (nil on a plain pass) and the checker.
type env struct {
	seed    uint64
	small   bool // the smoke-test size
	workdir string
	tr      *tracer
	chk     *checker
	files   int
	cores   map[string]int // compute cores per config name
}

// computeCores counts the SIMT cores of a configuration's geometry.
func (e *env) computeCores(c core.Config) int {
	if n, ok := e.cores[c.Name]; ok {
		return n
	}
	n := 0
	if b, err := noc.BuildBackend(c.Noc); err == nil {
		n = len(b.ComputeNodes())
	}
	e.cores[c.Name] = n
	return n
}

// tempPath returns a fresh file name under the work directory.
func (e *env) tempPath(name string) string {
	e.files++
	return filepath.Join(e.workdir, fmt.Sprintf("%d-%s", e.files, name))
}

// checker counts operations and output checks and keeps the first failures.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// check records one attempted operation or output check; !ok is a failure.
func (c *checker) check(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// workloadRunner is one of the five benchmark workloads.
type workloadRunner interface {
	// setup constructs everything one pass builds and lets it go; the
	// harness times it for setup_s.
	setup(e *env) error
	// pass runs the workload's unit of work once, checking its outputs.
	pass(e *env) passStats
	// verify runs the output checks that need an extra simulation, once,
	// outside the timed passes.
	verify(e *env, ref passStats)
}

func newWorkload(name string, e *env) (workloadRunner, error) {
	switch name {
	case wlClosedHH:
		return newClosedHH(e), nil
	case wlClosedPerfect:
		return newClosedPerfect(e), nil
	case wlOpenLoadLat:
		return newOpenLoadLat(e), nil
	case wlSweepLanes:
		return newSweepLanes(e), nil
	case wlService:
		return newServiceRT(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(allWorkloads, ", "))
}

// passStats is what one pass did. Everything simulated in it repeats
// exactly from pass to pass; only the host times differ.
type passStats struct {
	wall      time.Duration // the timed phase, raw host time
	freshWall time.Duration // service: phase A alone, what service.jobs_per_s is over
	speed     float64       // reference-kernel factor the host times are scaled by
	peakRSS   float64       // VmHWM over this pass alone, MB
	runs      int           // completed ok operations
	soloRuns  int           // runs the workload itself put through the solo loop

	results []core.Result
	points  []traffic.Result

	simCycles, simInstrs, coreTicks, flitHops, packets uint64

	// service round trips, ms
	fresh, repeat []float64
	freshOps      []string
	repeatHits    int
	shed          int
}

// addRun folds one closed-loop result into the pass.
func (ps *passStats) addRun(e *env, c core.Config, r core.Result) {
	ps.results = append(ps.results, r)
	ps.simCycles += r.IcntCycles
	ps.simInstrs += r.ScalarInstrs
	ps.coreTicks += r.CoreCycles * uint64(e.computeCores(c))
	if r.Status == "ok" {
		ps.runs++
	}
}

// addNet folds one network's counters into the pass.
func (ps *passStats) addNet(ns *noc.NetStats) {
	ps.flitHops += ns.FlitHops
	for _, n := range ns.InjectedPackets {
		ps.packets += n
	}
}

// digest identifies everything the pass simulated.
func (ps *passStats) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v|%d|%d|%d|%d", ps.results, ps.points, ps.simCycles, ps.simInstrs, ps.flitHops, ps.packets)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// simMetrics returns the pass's simulated statistics: exact-repeat
// per-layer counts, so a speed-only change can be shown to have left them
// identical.
func (ps *passStats) simMetrics() map[string]float64 {
	m := map[string]float64{
		"core.icnt_cycles":   float64(ps.simCycles),
		"core.scalar_instrs": float64(ps.simInstrs),
		"noc.flit_hops":      float64(ps.flitHops),
		"noc.packets":        float64(ps.packets),
		"traffic.points":     float64(len(ps.points)),
	}
	if n := float64(len(ps.results)); n > 0 {
		ipcs := make([]float64, 0, len(ps.results))
		for _, r := range ps.results {
			ipcs = append(ipcs, r.IPC)
			m["gpu.l1_hit_rate"] += r.L1HitRate / n
			m["cache.l2_hit_rate"] += r.L2HitRate / n
			m["mem.mc_stall_frac"] += r.MCStallFraction / n
			m["dram.efficiency"] += r.DRAMEfficiency / n
			m["noc.avg_latency_cycles"] += r.AvgNetLatency / n
		}
		m["core.sim_ipc_hm"] = stats.HarmonicMean(ipcs)
	}
	for _, p := range ps.points {
		m["noc.avg_latency_cycles"] += p.AvgLatency / float64(len(ps.points))
		if p.Saturated {
			m["noc.saturated_points"]++
		}
	}
	return m
}

const (
	maxSetupReps = 20 * 21
	setupBudget  = 500 * time.Millisecond
)

// runSpec is one invocation of the benchmark.
type runSpec struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	small     bool
	workdir   string
	traceOut  string // span file; "" leaves the spans in memory
	minPasses int    // per phase
	setupReps int
}

// report is the outcome of one invocation.
type report struct {
	spec      runSpec
	metrics   map[string]float64 // every metric of the mode that ran, by name
	walls     []float64          // wall seconds of the plain passes at the reference speed
	rawWalls  []float64          // and as the clock read them
	traced    int                // traced passes
	digest    string
	attempted int
	failed    int
	msgs      []string
	freshN    int                // service round trips behind the fresh percentiles
	repeatN   int                // and behind the repeat percentiles
	cpuTotal  float64            // CPU seconds in the profile
	layers    map[string]float64 // CPU seconds by layer, whole profile
	spans     int
}

// runPasses repeats the workload's pass until the budget is spent. Every
// pass starts from a collected heap with the process's peak-RSS counter
// reset, so the passes are independent samples of time and memory. When
// calibrated, each pass is bracketed by reference-kernel samples taken in
// the quiesced process and carries the speed factor they give.
func runPasses(w workloadRunner, e *env, budget time.Duration, atLeast int, calibrated bool) []passStats {
	var out []passStats
	quiesce := func() float64 {
		resetPeakRSS()
		if !calibrated {
			return 1
		}
		return refSample()
	}
	before := quiesce()
	start := time.Now()
	for len(out) < atLeast || time.Since(start) < budget {
		e.tr.nextPass()
		ps := w.pass(e)
		ps.peakRSS = peakRSSMB() - refKernelMB
		after := quiesce()
		ps.speed = refSpeed(before, after)
		before = after
		out = append(out, ps)
	}
	return out
}

// wallSeconds returns each pass's wall time at the reference speed.
func wallSeconds(passes []passStats) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds() * p.speed
	}
	return out
}

// rawSeconds returns each pass's wall time as the clock read it.
func rawSeconds(passes []passStats) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = p.wall.Seconds()
	}
	return out
}

// measure runs one workload: set-up timing, plain passes, on a traced
// invocation the same passes again under the profile and the seam
// decorators, then the output checks.
func measure(rs runSpec) (*report, error) {
	chk := &checker{}
	e := &env{seed: rs.seed, small: rs.small, workdir: rs.workdir, chk: chk, cores: map[string]int{}}
	w, err := newWorkload(rs.workload, e)
	if err != nil {
		return nil, err
	}
	rep := &report{spec: rs, metrics: map[string]float64{}}

	// At least setupReps constructions; a construction that takes well
	// under a millisecond is repeated more, so its median is steady too.
	setups := make([]float64, 0, rs.setupReps)
	refBefore := refSample()
	for begin := time.Now(); len(setups) < rs.setupReps ||
		(len(setups) < maxSetupReps && time.Since(begin) < setupBudget); {
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", rs.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupSpeed := refSpeed(refBefore, refSample())

	budget := time.Duration(rs.seconds * float64(time.Second))
	if rs.trace {
		budget /= 2
	}
	plain := runPasses(w, e, budget, rs.minPasses, true)
	first := plain[0]
	rep.digest = first.digest()
	for i, p := range plain[1:] {
		chk.check(p.digest() == rep.digest, "pass %d simulated %s, pass 0 simulated %s", i+1, p.digest(), rep.digest)
	}
	rep.walls, rep.rawWalls = wallSeconds(plain), rawSeconds(plain)
	wall := median(rep.walls)

	if rs.trace {
		tr := newTracer()
		e.tr = tr
		var before, after runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced := runPasses(w, e, budget, rs.minPasses, false) // uncalibrated: the kernel would show up in the profile
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		e.tr = nil
		for i, p := range traced {
			chk.check(p.digest() == rep.digest, "traced pass %d simulated %s, plain pass 0 simulated %s", i, p.digest(), rep.digest)
		}
		parsed, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		rep.traced, rep.spans = len(traced), len(tr.spans)
		perLayerMetrics(rep, tr, parsed, plain, traced, &before, &after)
		if rs.traceOut != "" {
			if err := tr.writeSpans(rs.traceOut); err != nil {
				return nil, err
			}
		}
	}

	w.verify(e, first)

	rep.attempted, rep.failed, rep.msgs = chk.attempted, chk.failed, chk.msgs
	if rs.trace {
		rep.metrics["bench.failed_frac"] = float64(chk.failed) / float64(chk.attempted)
		return rep, nil
	}
	peaks := make([]float64, len(plain))
	for i, p := range plain {
		peaks[i] = p.peakRSS
	}
	rep.metrics["wall_s"] = wall
	rep.metrics["sim_cycles_per_s"] = float64(first.simCycles) / wall
	rep.metrics["setup_s"] = median(setups) * setupSpeed
	rep.metrics["peak_rss_mb"] = median(peaks)
	return rep, nil
}

// perLayerMetrics fills the per-layer ledger from the traced passes: the
// CPU profile by leaf-frame package, the seam decorators' counters, the
// spans, and runtime.MemStats deltas. Host times are per pass.
func perLayerMetrics(rep *report, tr *tracer, prof *cpuProfile, plain, traced []passStats, before, after *runtime.MemStats) {
	m := rep.metrics
	n := float64(len(traced))
	first := plain[0]
	speeds := make([]float64, len(plain))
	for i, p := range plain {
		speeds[i] = p.speed
	}
	rawWall := median(rep.rawWalls)
	m["bench.wall_s"] = rawWall
	m["bench.ref_speed"] = median(speeds)
	for k, v := range first.simMetrics() {
		m[k] = v
	}

	layers, total, samples := prof.cpuByLayer()
	rep.layers, rep.cpuTotal = layers, total
	for layer, sec := range layers {
		name := layer + ".cpu_s"
		if _, known := findMetric(perLayer, name); !known {
			name = "other.cpu_s"
		}
		m[name] += sec / n
	}
	m["trace.cpu_samples"] = float64(samples)
	m["trace.overhead_frac"] = median(rawSeconds(traced))/rawWall - 1

	// rates over the plain passes, per host second as the clock read it
	m["core.sim_cycles_per_s"] = float64(first.simCycles) / rawWall
	m["core.sim_instrs_per_s"] = float64(first.simInstrs) / rawWall
	m["noc.flit_hops_per_s"] = float64(first.flitHops) / rawWall
	if first.coreTicks > 0 {
		m["gpu.ns_per_core_tick"] = m["gpu.cpu_s"] / float64(first.coreTicks) * 1e9
	}
	if first.flitHops > 0 {
		m["noc.ns_per_flit_hop"] = (m["noc.cpu_s"] + m["ring.cpu_s"]) / float64(first.flitHops) * 1e9
	}

	// spans
	kernel := sum(tr.durations("runner.kernel"))
	m["core.run_s"] = (sum(tr.durations("core.run")) + kernel + sum(tr.durations("service.kernel"))) / n
	m["core.new_system_ms"] = median(tr.durations("core.new_system")) * 1e3
	m["traffic.run_s"] = sum(tr.durations("traffic.run")) / n

	// heap
	if first.runs > 0 {
		ops := n * float64(first.runs)
		m["core.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / ops
		m["core.alloc_mb_per_run"] = float64(after.TotalAlloc-before.TotalAlloc) / ops / (1 << 20)
	}
	m["go_runtime.gc_cycles"] = float64(after.NumGC-before.NumGC)/n - 1 // less the collection every pass starts from

	// which cycle loop the runs took
	solo, laneRuns := float64(tr.soloRuns), 0.0
	for _, p := range traced {
		solo += float64(p.soloRuns)
	}
	for _, w := range tr.laneWidths {
		laneRuns += float64(w)
	}
	m["core.solo_runs"] = solo / n
	m["core.lane_runs"] = laneRuns / n

	// noc.Network decorator (open loop)
	m["noc.ticks"] = float64(tr.netTicks) / n
	m["noc.skipped_cycles"] = float64(tr.netSkipped) / n
	if tr.netTicks > 0 {
		m["noc.skip_frac"] = float64(tr.netSkipped) / float64(tr.netTicks+tr.netSkipped)
	}
	if tr.netTimedTicks > 0 {
		m["noc.tick_ns"] = float64(tr.netTickNS) / float64(tr.netTimedTicks)
	}
	if tr.netTimedInjs > 0 {
		m["noc.inject_ns"] = float64(tr.netInjectNS) / float64(tr.netTimedInjs)
	}

	switch rep.spec.workload {
	case wlSweepLanes:
		submit := tr.durations("runner.submit")
		m["runner.runs_per_s"] = float64(first.runs) / rawWall
		m["runner.submit_wall_s"] = median(submit)
		m["runner.kernel_s"] = kernel / n
		if s := sum(submit); s > 0 {
			m["runner.slot_util"] = kernel / (sweepJobs * s)
		}
		m["runner.plan_us"] = median(tr.durations("runner.plan")) * 1e6
		m["runner.lane_batches"] = float64(len(tr.laneWidths)) / n
		if len(tr.laneWidths) > 0 {
			m["runner.lane_width_mean"] = laneRuns / float64(len(tr.laneWidths))
		}
		m["runner.journal_syncs"] = float64(tr.fsSyncs) / n
		m["runner.journal_sync_ms_p50"] = median(tr.fsSync)
		m["runner.journal_bytes"] = float64(tr.fsBytes) / n
		m["runner.resume_ms"] = median(tr.durations("runner.resume")) * 1e3
	case wlService:
		m["service.kernel_s"] = sum(tr.durations("service.kernel")) / n
		m["service.store_syncs"] = float64(tr.fsSyncs) / n
		m["service.store_sync_ms_p50"] = median(tr.fsSync)
		kernelOf := tr.byOp("service.kernel")
		var overhead, fresh, repeat, jobRates []float64
		shed, hits := 0, 0
		for _, p := range traced {
			for i, ms := range p.fresh {
				overhead = append(overhead, ms-kernelOf[p.freshOps[i]]*1e3)
			}
			shed += p.shed
			hits += p.repeatHits
		}
		m["service.shed_429"] = float64(shed) / n
		m["service.repeat_hits"] = float64(hits) / n
		m["service.overhead_ms_p50"] = median(overhead)
		for _, p := range plain {
			fresh = append(fresh, p.fresh...)
			repeat = append(repeat, p.repeat...)
			if p.freshWall > 0 {
				jobRates = append(jobRates, float64(len(p.fresh))/p.freshWall.Seconds())
			}
		}
		rep.freshN, rep.repeatN = len(fresh), len(repeat)
		m["service.jobs_per_s"] = median(jobRates)
		m["service.fresh_p50_ms"] = median(fresh)
		m["service.fresh_p90_ms"] = quantile(fresh, 0.90)
		m["service.repeat_p50_ms"] = median(repeat)
		m["service.repeat_p99_ms"] = quantile(repeat, 0.99)
	}
}
