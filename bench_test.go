// Benchmarks regenerating the paper's tables and figures. Each benchmark
// drives the same harness as cmd/experiments, at a reduced scale and on a
// class-representative benchmark subset so `go test -bench=.` terminates in
// minutes; run `go run ./cmd/experiments all` for the full-scale numbers
// recorded in EXPERIMENTS.md.
//
// Benchmarks report the headline quantity of their figure as a custom
// metric (e.g. hm_speedup_pct) alongside ns/op.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// benchSubset is one benchmark per traffic class (LL, LH, HH).
var benchSubset = []string{"BIN", "CON", "MUM"}

const benchScale = 0.15

func newSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.New(experiments.Options{Scale: benchScale, Benchmarks: benchSubset})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// runPair measures the harmonic-mean speedup of alt over base across the
// benchmark subset.
func runPair(b *testing.B, base, alt func(workload.Profile) core.Config) float64 {
	b.Helper()
	var ratios []float64
	for _, abbr := range benchSubset {
		p, err := workload.ByAbbr(abbr)
		if err != nil {
			b.Fatal(err)
		}
		rb := core.MustRun(base(p).ScaleWork(benchScale))
		ra := core.MustRun(alt(p).ScaleWork(benchScale))
		ratios = append(ratios, ra.IPC/rb.IPC)
	}
	return stats.HarmonicMean(ratios)
}

// BenchmarkFig02DesignSpace regenerates the Fig 2 design points.
func BenchmarkFig02DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSuite(b)
		rep := s.Fig2()
		if len(rep.Table.String()) == 0 {
			b.Fatal("empty fig2")
		}
	}
}

// BenchmarkFig06LimitStudy sweeps the ideal-NoC bandwidth cap (Fig 6).
func BenchmarkFig06LimitStudy(b *testing.B) {
	p, _ := workload.ByAbbr("MUM")
	for i := 0; i < b.N; i++ {
		ref := core.MustRun(core.Perfect(p).ScaleWork(benchScale)).IPC
		cfg := core.Baseline(p)
		capped := core.MustRun(core.IdealCapped(p, cfg.CapForBWFraction(0.816)).ScaleWork(benchScale)).IPC
		b.ReportMetric(100*capped/ref, "pct_of_infinite_bw")
	}
}

// BenchmarkFig07PerfectSpeedup measures the perfect-network speedup (Fig 7).
func BenchmarkFig07PerfectSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b, core.Baseline, core.Perfect)
		b.ReportMetric(100*(hm-1), "hm_speedup_pct")
	}
}

// BenchmarkFig08SpeedupVsMCRate reproduces the Fig 8 correlation inputs.
func BenchmarkFig08SpeedupVsMCRate(b *testing.B) {
	p, _ := workload.ByAbbr("MUM")
	for i := 0; i < b.N; i++ {
		perf := core.MustRun(core.Perfect(p).ScaleWork(benchScale))
		b.ReportMetric(perf.MCInjRate, "mc_flits_per_cycle")
	}
}

// BenchmarkFig09BWvsLatency compares 2x bandwidth against 1-cycle routers.
func BenchmarkFig09BWvsLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bw := runPair(b, core.Baseline,
			func(p workload.Profile) core.Config { return core.Baseline(p).With2xBW() })
		lat := runPair(b, core.Baseline,
			func(p workload.Profile) core.Config { return core.Baseline(p).With1CycleRouters() })
		b.ReportMetric(100*(bw-1), "hm_2xbw_pct")
		b.ReportMetric(100*(lat-1), "hm_1cycle_pct")
	}
}

// BenchmarkFig10LatencyRatio measures the NoC latency ratio of 1-cycle vs
// 4-cycle routers.
func BenchmarkFig10LatencyRatio(b *testing.B) {
	p, _ := workload.ByAbbr("CON")
	for i := 0; i < b.N; i++ {
		base := core.MustRun(core.Baseline(p).ScaleWork(benchScale))
		fast := core.MustRun(core.Baseline(p).With1CycleRouters().ScaleWork(benchScale))
		b.ReportMetric(fast.AvgNetLatency/base.AvgNetLatency, "latency_ratio")
	}
}

// BenchmarkFig11MCStall measures reply-path blocking at the MCs.
func BenchmarkFig11MCStall(b *testing.B) {
	p, _ := workload.ByAbbr("MUM")
	for i := 0; i < b.N; i++ {
		res := core.MustRun(core.Baseline(p).ScaleWork(benchScale))
		b.ReportMetric(100*res.MCStallFraction, "mc_stall_pct")
	}
}

// BenchmarkFig16Placement measures checkerboard vs top-bottom placement.
func BenchmarkFig16Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b, core.Baseline,
			func(p workload.Profile) core.Config { return core.Baseline(p).WithCheckerboardPlacement() })
		b.ReportMetric(100*(hm-1), "hm_speedup_pct")
	}
}

// BenchmarkFig17Checkerboard measures CR-4VC vs DOR-4VC (both CP).
func BenchmarkFig17Checkerboard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b,
			func(p workload.Profile) core.Config {
				return core.Baseline(p).WithCheckerboardPlacement().WithVCs(4)
			},
			func(p workload.Profile) core.Config { return core.Baseline(p).WithCheckerboardRouting() })
		b.ReportMetric(100*(hm-1), "cr_vs_dor4vc_pct")
	}
}

// BenchmarkFig18DoubleNet measures the channel-sliced double network.
func BenchmarkFig18DoubleNet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b,
			func(p workload.Profile) core.Config { return core.Baseline(p).WithCheckerboardRouting() },
			func(p workload.Profile) core.Config {
				return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork()
			})
		b.ReportMetric(100*(hm-1), "hm_speedup_pct")
	}
}

// BenchmarkFig19MultiPort measures 2 injection ports at MC routers.
func BenchmarkFig19MultiPort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b,
			func(p workload.Profile) core.Config {
				return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork()
			},
			func(p workload.Profile) core.Config {
				return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork().WithMCInjectionPorts(2)
			})
		b.ReportMetric(100*(hm-1), "hm_speedup_pct")
	}
}

// BenchmarkFig20Combined measures the full throughput-effective design, in
// both the paper-exact (sliced) and single-network forms.
func BenchmarkFig20Combined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b, core.Baseline, core.ThroughputEffective)
		single := runPair(b, core.Baseline, core.ThroughputEffectiveSingle)
		b.ReportMetric(100*(hm-1), "hm_speedup_pct")
		b.ReportMetric(100*(single-1), "hm_speedup_1net_pct")
	}
}

// BenchmarkFig21OpenLoop runs one open-loop latency/load point per pattern.
func BenchmarkFig21OpenLoop(b *testing.B) {
	runner := traffic.NewMeshRunner(noc.DefaultConfig())
	for i := 0; i < b.N; i++ {
		cfg := traffic.DefaultConfig()
		cfg.InjectionRate = 0.03
		cfg.WarmupCycles = 500
		cfg.MeasureCycles = 2000
		cfg.DrainCycles = 4000
		res := runner.Run(cfg)
		b.ReportMetric(res.AvgLatency, "latency_cycles")
	}
}

// idleSkipClosedLoopConfig builds the memory-bound closed-loop system the
// idle-horizon benchmarks measure: a single SIMT core on a 2×2 mesh whose
// other three tiles are memory controllers, one resident warp streaming an
// L2-resident working set through a deep (128-cycle) memory pipeline. Every
// memory instruction parks the warp on an outstanding fill with the mesh
// quiescent and DRAM idle — the bursty stall-dominated regime where
// dormancy elision pays most, and the worst case for ticking every
// component on every edge. Wide flits and 1-cycle routers keep the busy
// fraction of each round trip small so the dormant window dominates.
func idleSkipClosedLoopConfig() core.Config {
	prof := workload.Profile{
		Name: "MemStall", Abbr: "MSTL", Class: "LH",
		Warps: 1, InstrsPerWarp: 3000,
		MemFraction: 1.0, WriteFraction: 0, LinesPerMemInstr: 1,
		ActiveThreads: 32, WorkingSetKB: 64,
		Sequential: 1.0, Reuse: 0,
	}
	cfg := core.Baseline(prof)
	cfg.Name = "IdleSkip-MemBound"
	nc := noc.DefaultConfig()
	nc.Width, nc.Height = 2, 2
	nc.MCs = []noc.NodeID{1, 2, 3}
	nc.RouterStages = 1
	nc.HalfRouterStages = 1
	nc.FlitBytes = 64
	cfg.Noc = nc
	cfg.Mem.L2Latency = 128
	return cfg
}

// BenchmarkIdleSkipClosedLoop times the memory-bound closed-loop run with
// dormancy elision on (the default) and off. The loop steps every
// scheduler edge in both modes; skip elides the ticks of dormant
// components, noskip ticks every component on every edge. Results are
// bit-identical between the two modes (TestIdleSkipEquivalenceMemBound);
// only wall-clock differs, so skip-vs-noskip ns/op is elision's speedup.
func BenchmarkIdleSkipClosedLoop(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := idleSkipClosedLoopConfig()
			cfg.NoIdleSkip = mode.noSkip
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res := core.MustRun(cfg)
				if !res.OK() {
					b.Fatal(res.Status)
				}
				cycles = res.IcntCycles
			}
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Micnt_cycles_per_sec")
		})
	}
}

// BenchmarkIdleSkipOpenLoopDrain times an open-loop point whose long drain
// phase is almost entirely idle: a low injection rate empties the mesh
// quickly, after which edge-by-edge stepping burns the rest of the drain
// window ticking an empty network while the drain-phase fast-forward jumps
// straight to the end. Digests are bit-identical between modes
// (TestOpenLoopIdleSkipEquivalence).
func BenchmarkIdleSkipOpenLoopDrain(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noSkip bool
	}{{"skip", false}, {"noskip", true}} {
		b.Run(mode.name, func(b *testing.B) {
			runner := traffic.NewMeshRunner(noc.DefaultConfig())
			cfg := traffic.DefaultConfig()
			cfg.InjectionRate = 0.005
			cfg.WarmupCycles = 500
			cfg.MeasureCycles = 2000
			cfg.DrainCycles = 80000
			cfg.NoIdleSkip = mode.noSkip
			for i := 0; i < b.N; i++ {
				res := runner.Run(cfg)
				if res.MeasuredPackets == 0 {
					b.Fatal("no packets measured")
				}
			}
		})
	}
}

// laneManycoreConfig builds the memory-bound manycore family the lane
// throughput benchmark measures: the paper's 6×6 baseline mesh (28 SIMT
// cores, 8 top/bottom MCs) with every core running a few warps of pure
// memory traffic through a deep L2 pipeline. At any instant nearly every
// core is parked on outstanding fills, but their round trips desynchronise
// through MC queueing, so the SYSTEM is almost never globally idle — the
// regime where whole-run idle-skipping (the solo kernel's only lever)
// rarely fires, while the lane kernel's per-component dormancy elides the
// ~27 parked cores and idle MC sides individually on every edge.
func laneManycoreConfig() core.Config {
	prof := workload.Profile{
		Name: "ManycoreMemBound", Abbr: "MCMB", Class: "HH",
		Warps: 12, InstrsPerWarp: 28,
		MemFraction: 1.0, WriteFraction: 0, LinesPerMemInstr: 1,
		ActiveThreads: 32, WorkingSetKB: 64,
		Sequential: 1.0, Reuse: 0,
	}
	cfg := core.Baseline(prof)
	cfg.Name = "Lane-Manycore-MemBound"
	// 1-cycle routers and line-sized flits (both §III-C design points) keep
	// the busy fraction of each round trip small, as in the idle-skip
	// family: the benchmark isolates how the two kernels spend the PARKED
	// cycles, not router pipeline throughput.
	cfg.Noc.RouterStages = 1
	cfg.Noc.HalfRouterStages = 1
	cfg.Noc.FlitBytes = 64
	cfg.Mem.L2Latency = 256
	return cfg
}

// BenchmarkLaneThroughput measures per-seed throughput of the lane-batched
// kernel on the memory-bound manycore family: one op runs L seeds of the
// same configuration, solo back-to-back at L=1 and through core.RunLanes at
// L=4. Sub-benchmark names end in -l<N> so cmd/benchjson derives a
// per-seed speedup_vs_l1 metric (serial ns × L / lane ns). It holds on any
// host: lane batching is single-threaded work elision (per-component
// dormancy), not parallelism. Results are
// bit-identical between the rows (TestGoldenDigestsLanes pins it).
func BenchmarkLaneThroughput(b *testing.B) {
	const batch = 4
	for _, lanes := range []int{1, batch} {
		b.Run(fmt.Sprintf("manycore-l%d", lanes), func(b *testing.B) {
			cfg := laneManycoreConfig()
			seedsPerOp := lanes // one op covers L seeds, so ns/op scales with L
			var seed uint64 = 1
			for i := 0; i < b.N; i++ {
				if lanes == 1 {
					cfg.Seed = seed
					res := core.MustRun(cfg)
					if !res.OK() {
						b.Fatal(res.Status)
					}
					seed++
					continue
				}
				seeds := make([]uint64, seedsPerOp)
				for j := range seeds {
					seeds[j] = seed
					seed++
				}
				results, errs := core.RunLanes(nil, cfg, seeds)
				for j := range results {
					if errs[j] != nil || !results[j].OK() {
						b.Fatalf("lane %d: %v (%s)", j, errs[j], results[j].Status)
					}
				}
			}
			b.ReportMetric(float64(seedsPerOp), "seeds/op")
		})
	}
}

// BenchmarkTable06Area regenerates the area table.
func BenchmarkTable06Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.Baseline(workload.Profile{}).Area()
		if base.Routers < 60 || base.Routers > 75 {
			b.Fatalf("baseline router area %v off Table VI", base.Routers)
		}
		b.ReportMetric(base.Chip(), "chip_mm2")
	}
}

// BenchmarkHeadlineThroughputEffectiveness measures IPC/mm² of the combined
// design against the baseline (paper: +25.4%).
func BenchmarkHeadlineThroughputEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hm := runPair(b, core.Baseline, core.ThroughputEffective)
		single := runPair(b, core.Baseline, core.ThroughputEffectiveSingle)
		p, _ := workload.ByAbbr("MUM")
		baseChip := core.Baseline(p).Area().Chip()
		teChip := core.ThroughputEffective(p).Area().Chip()
		te1Chip := core.ThroughputEffectiveSingle(p).Area().Chip()
		b.ReportMetric(100*(hm*baseChip/teChip-1), "ipc_per_mm2_gain_pct")
		b.ReportMetric(100*(single*baseChip/te1Chip-1), "ipc_per_mm2_gain_1net_pct")
	}
}
