package experiments

import (
	"fmt"
	"math"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig7 measures the perfect-network speedup over the baseline mesh and the
// LL/LH/HH classification (paper: HM 36% overall, 87% for HH).
func (s *Suite) Fig7() *Report {
	tb := stats.NewTable("Fig 7: speedup of a perfect NoC over baseline",
		"bench", "class(paper)", "class(measured)", "baseIPC", "perfIPC", "speedup", "B/cyc/node")
	s.prefetch(core.Baseline, core.Perfect)
	ratios := map[string]float64{}
	for _, p := range s.bench {
		base := s.run(core.Baseline(p))
		perf := s.run(core.Perfect(p))
		if !base.OK() || !perf.OK() || base.IPC <= 0 {
			tb.AddRow(p.Abbr, p.Class, "-", base.IPC, perf.IPC, "DNF", perf.AcceptedBytes)
			continue
		}
		ratio := perf.IPC / base.IPC
		ratios[p.Abbr] = ratio
		tb.AddRow(p.Abbr, p.Class, classOf(ratio, perf.AcceptedBytes),
			base.IPC, perf.IPC, pct(ratio), perf.AcceptedBytes)
	}
	overall := hm(ratios, nil)
	hhOnly := hm(ratios, isClass("HH"))
	return &Report{
		ID:    "fig7",
		Title: "Perfect interconnect speedup and traffic classes",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM speedup all benchmarks: paper +36%%, measured %s", pct(overall)),
			fmt.Sprintf("HM speedup HH benchmarks:  paper +87%%, measured %s", pct(hhOnly)),
		},
	}
}

// Fig8 correlates the perfect-network speedup with the MC injection rate
// (paper: strong positive correlation, pointing at the reply bottleneck).
func (s *Suite) Fig8() *Report {
	tb := stats.NewTable("Fig 8: perfect-NoC speedup vs MC injection rate",
		"bench", "class", "mcInj(flits/cyc/node)", "speedup")
	s.prefetch(core.Baseline, core.Perfect)
	var xs, ys []float64
	for _, p := range s.bench {
		base := s.run(core.Baseline(p))
		perf := s.run(core.Perfect(p))
		if !base.OK() || !perf.OK() || base.IPC <= 0 {
			tb.AddRow(p.Abbr, p.Class, perf.MCInjRate, "DNF")
			continue
		}
		ratio := perf.IPC / base.IPC
		tb.AddRow(p.Abbr, p.Class, perf.MCInjRate, pct(ratio))
		xs = append(xs, perf.MCInjRate)
		ys = append(ys, ratio)
	}
	r := "n/a"
	if corr, ok := pearson(xs, ys); ok {
		r = fmt.Sprintf("%.2f", corr)
	}
	return &Report{
		ID:    "fig8",
		Title: "Speedup correlates with memory-node injection rate",
		Table: tb,
		Summary: []string{
			"correlation(speedup, MC injection rate): paper 'correlated', measured r=" + r,
		},
	}
}

// pearson returns the Pearson correlation coefficient of the paired
// samples, or false when it is undefined: fewer than two pairs, or no
// spread in either variable.
func pearson(xs, ys []float64) (float64, bool) {
	var sx, sy, sxx, syy, sxy float64
	spreadX, spreadY := false, false
	for i, x := range xs {
		y := ys[i]
		spreadX = spreadX || x != xs[0]
		spreadY = spreadY || y != ys[0]
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	n := float64(len(xs))
	vx, vy := n*sxx-sx*sx, n*syy-sy*sy
	if !spreadX || !spreadY || vx <= 0 || vy <= 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / (math.Sqrt(vx) * math.Sqrt(vy)), true
}

// Fig9 compares doubling channel bandwidth against 1-cycle routers
// (paper: +27% HM vs +2.3% HM).
func (s *Suite) Fig9() *Report {
	tb := stats.NewTable("Fig 9: bandwidth vs latency scaling",
		"bench", "class", "2xBW speedup", "1-cycle speedup")
	s.prefetch(core.Baseline,
		func(p workload.Profile) core.Config { return core.Baseline(p).With2xBW() },
		func(p workload.Profile) core.Config { return core.Baseline(p).With1CycleRouters() })
	bw := map[string]float64{}
	lat := map[string]float64{}
	for _, p := range s.bench {
		base := s.run(core.Baseline(p))
		b2 := s.run(core.Baseline(p).With2xBW())
		l1 := s.run(core.Baseline(p).With1CycleRouters())
		if !base.OK() || !b2.OK() || !l1.OK() || base.IPC <= 0 {
			tb.AddRow(p.Abbr, p.Class, "DNF", "DNF")
			continue
		}
		bw[p.Abbr] = b2.IPC / base.IPC
		lat[p.Abbr] = l1.IPC / base.IPC
		tb.AddRow(p.Abbr, p.Class, pct(bw[p.Abbr]), pct(lat[p.Abbr]))
	}
	return &Report{
		ID:    "fig9",
		Title: "Scaling bandwidth helps, scaling router latency barely does",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM 2x-bandwidth speedup: paper +27%%, measured %s", pct(hm(bw, nil))),
			fmt.Sprintf("HM 1-cycle-router speedup: paper +2.3%%, measured %s", pct(hm(lat, nil))),
		},
	}
}

// Fig10 reports the network-latency ratio of 1-cycle vs 4-cycle routers
// (paper: 0.5-0.9 across benchmarks).
func (s *Suite) Fig10() *Report {
	tb := stats.NewTable("Fig 10: NoC latency ratio, 1-cycle vs 4-cycle routers",
		"bench", "class", "lat(4cyc)", "lat(1cyc)", "ratio")
	s.prefetch(core.Baseline,
		func(p workload.Profile) core.Config { return core.Baseline(p).With1CycleRouters() })
	lo, hi := 10.0, 0.0
	for _, p := range s.bench {
		base := s.run(core.Baseline(p))
		fast := s.run(core.Baseline(p).With1CycleRouters())
		if !base.OK() || !fast.OK() || base.AvgNetLatency <= 0 {
			tb.AddRow(p.Abbr, p.Class, base.AvgNetLatency, fast.AvgNetLatency, "DNF")
			continue
		}
		ratio := fast.AvgNetLatency / base.AvgNetLatency
		if ratio < lo {
			lo = ratio
		}
		if ratio > hi {
			hi = ratio
		}
		tb.AddRow(p.Abbr, p.Class, base.AvgNetLatency, fast.AvgNetLatency, ratio)
	}
	return &Report{
		ID:    "fig10",
		Title: "Aggressive routers cut network latency but not runtime",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("latency ratio range: paper ~0.5-0.9, measured %.2f-%.2f", lo, hi),
		},
	}
}

// Fig11 reports the fraction of time MC reply injection is blocked
// (paper: up to ~70% for HH benchmarks).
func (s *Suite) Fig11() *Report {
	tb := stats.NewTable("Fig 11: fraction of time MCs are stalled by the reply network",
		"bench", "class", "stall")
	s.prefetch(core.Baseline)
	maxStall := 0.0
	for _, p := range s.bench {
		base := s.run(core.Baseline(p))
		if base.MCStallFraction > maxStall {
			maxStall = base.MCStallFraction
		}
		tb.AddRow(p.Abbr, p.Class, fmt.Sprintf("%.1f%%", 100*base.MCStallFraction))
	}
	return &Report{
		ID:    "fig11",
		Title: "Reply-path blocking at the memory controllers",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("max MC stall fraction: paper ~70%%, measured %.0f%%", 100*maxStall),
		},
	}
}

// Fig16 measures checkerboard (staggered) MC placement against top-bottom
// (paper: +13.2% HM).
func (s *Suite) Fig16() *Report {
	tb := stats.NewTable("Fig 16: checkerboard placement vs top-bottom (2 VCs)",
		"bench", "class", "speedup")
	ratios := s.speedups(core.Baseline, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardPlacement()
	})
	for _, abbr := range s.orderedAbbrs() {
		tb.AddRow(abbr, paperClassOf(abbr), pct(ratios[abbr]))
	}
	return &Report{
		ID:    "fig16",
		Title: "Staggered MC placement",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM speedup: paper +13.2%%, measured %s", pct(hm(ratios, nil))),
		},
	}
}

// Fig17 compares DOR-4VC and checkerboard-routing-4VC against DOR-2VC, all
// with checkerboard placement (paper: CR costs only ~1.1% vs DOR-4VC while
// halving router area).
func (s *Suite) Fig17() *Report {
	tb := stats.NewTable("Fig 17: relative performance vs CP-DOR-2VC",
		"bench", "class", "CP-DOR-4VC", "CP-CR-4VC")
	base := func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardPlacement()
	}
	dor4 := s.speedups(base, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardPlacement().WithVCs(4)
	})
	cr4 := s.speedups(base, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting()
	})
	for _, abbr := range s.orderedAbbrs() {
		tb.AddRow(abbr, paperClassOf(abbr), pct(dor4[abbr]), pct(cr4[abbr]))
	}
	crVsDor := hm(cr4, nil) / hm(dor4, nil)
	return &Report{
		ID:    "fig17",
		Title: "Checkerboard routing with half-routers",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM CP-DOR-4VC vs 2VC: measured %s", pct(hm(dor4, nil))),
			fmt.Sprintf("HM CP-CR-4VC vs 2VC:  measured %s", pct(hm(cr4, nil))),
			fmt.Sprintf("CR cost vs DOR-4VC: paper -1.1%%, measured %s", pct(crVsDor)),
		},
	}
}

// Fig18 compares the channel-sliced double network against the single
// 16-byte 4-VC network (paper: ~+1% HM; our harsher memory-bound workloads
// make the 1-port double network lose more, see EXPERIMENTS.md).
func (s *Suite) Fig18() *Report {
	tb := stats.NewTable("Fig 18: double 8B network vs single 16B 4VC network",
		"bench", "class", "speedup")
	ratios := s.speedups(func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting()
	}, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork()
	})
	for _, abbr := range s.orderedAbbrs() {
		tb.AddRow(abbr, paperClassOf(abbr), pct(ratios[abbr]))
	}
	return &Report{
		ID:    "fig18",
		Title: "Channel slicing",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM speedup: paper ~+1%%, measured %s", pct(hm(ratios, nil))),
		},
	}
}

// Fig19 measures multi-port MC routers on top of the double network
// (paper: injection ports give the wins, up to ~25% for HH; ejection ports
// help only a few benchmarks).
func (s *Suite) Fig19() *Report {
	tb := stats.NewTable("Fig 19: multi-port MC routers vs double network",
		"bench", "class", "2 inj ports", "2 ej ports", "2 inj + 2 ej")
	base := func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork()
	}
	twoP := s.speedups(base, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork().WithMCInjectionPorts(2)
	})
	twoE := s.speedups(base, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork().WithMCEjectionPorts(2)
	})
	both := s.speedups(base, func(p workload.Profile) core.Config {
		return core.Baseline(p).WithCheckerboardRouting().WithDoubleNetwork().
			WithMCInjectionPorts(2).WithMCEjectionPorts(2)
	})
	maxP := 0.0
	for _, abbr := range s.orderedAbbrs() {
		if twoP[abbr] > maxP {
			maxP = twoP[abbr]
		}
		tb.AddRow(abbr, paperClassOf(abbr), pct(twoP[abbr]), pct(twoE[abbr]), pct(both[abbr]))
	}
	return &Report{
		ID:    "fig19",
		Title: "Extra terminal bandwidth at the few MC nodes",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM 2-injection-port speedup: measured %s (paper: HH gains up to ~25%%)", pct(hm(twoP, nil))),
			fmt.Sprintf("max 2-injection-port speedup: paper ~+25%%, measured %s", pct(maxP)),
			fmt.Sprintf("HM 2-ejection-port speedup: paper ~0%% (few benchmarks), measured %s", pct(hm(twoE, nil))),
		},
	}
}

// Fig20 measures the combined throughput-effective design against the
// baseline (paper: +17% HM, about half of the perfect network's +36%).
// Alongside the paper-exact configuration (with channel slicing) it reports
// the single-network variant, which is where the combined gains appear in
// this reproduction (see EXPERIMENTS.md on the Fig 18 deviation).
func (s *Suite) Fig20() *Report {
	tb := stats.NewTable("Fig 20: combined throughput-effective design vs baseline",
		"bench", "class", "Thr.Eff. (paper cfg)", "Thr.Eff. (single net)")
	ratios := s.speedups(core.Baseline, core.ThroughputEffective)
	single := s.speedups(core.Baseline, core.ThroughputEffectiveSingle)
	for _, abbr := range s.orderedAbbrs() {
		tb.AddRow(abbr, paperClassOf(abbr), pct(ratios[abbr]), pct(single[abbr]))
	}
	return &Report{
		ID:    "fig20",
		Title: "CP + CR + double network + 2 injection ports",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("HM speedup, paper config (CP+CR+double+2P): paper +17%%, measured %s", pct(hm(ratios, nil))),
			fmt.Sprintf("HM speedup, single-network variant (CP+CR+2P): measured %s", pct(hm(single, nil))),
		},
	}
}

// Fig6 is the limit study: application throughput (and throughput per unit
// area) under a zero-latency network with a swept aggregate bandwidth cap
// (paper: ~93%% of infinite-bandwidth throughput at the baseline bisection,
// knee of throughput/cost at 0.7-0.8x DRAM bandwidth).
func (s *Suite) Fig6() *Report {
	xs := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.816, 0.9, 1.0, 1.2, 1.4, 1.6}
	tb := stats.NewTable("Fig 6: ideal-NoC bandwidth limit study",
		"BW fraction of DRAM", "HM IPC", "normalized", "norm. IPC/area")
	// Warm the whole (benchmark × bandwidth-cap) grid in parallel.
	var cfgs []core.Config
	for _, p := range s.bench {
		cfgs = append(cfgs, core.Perfect(p))
		for _, x := range xs {
			cfgs = append(cfgs, core.IdealCapped(p, core.Baseline(p).CapForBWFraction(x)))
		}
	}
	s.runAll(cfgs)
	// Infinite-bandwidth reference.
	ref := map[string]float64{}
	for _, p := range s.bench {
		ref[p.Abbr] = s.run(core.Perfect(p)).IPC
	}
	baseNoC := area.FromConfig(noc.DefaultConfig(), false).NoC()
	var atBaseline float64
	bestCostX, bestCost := 0.0, 0.0
	for _, x := range xs {
		ratios := map[string]float64{}
		for _, p := range s.bench {
			capFlits := core.Baseline(p).CapForBWFraction(x)
			r := s.run(core.IdealCapped(p, capFlits))
			ratios[p.Abbr] = r.IPC / ref[p.Abbr]
		}
		norm := hm(ratios, nil)
		// NoC area scales with the square of channel bandwidth (§III-A);
		// x=0.816 corresponds to the baseline 16-byte channels.
		chip := area.ComputeAreaMM2 + baseNoC*(x/0.816)*(x/0.816)
		cost := norm / chip * area.ChipAreaMM2 // normalized so baseline chip = 1
		if x == 0.816 {
			atBaseline = norm
		}
		if cost > bestCost {
			bestCost, bestCostX = cost, x
		}
		var ipcs []float64
		for _, p := range s.bench {
			ipcs = append(ipcs, ratios[p.Abbr]*ref[p.Abbr])
		}
		tb.AddRow(x, stats.HarmonicMean(ipcs), norm, cost)
	}
	return &Report{
		ID:    "fig6",
		Title: "Balanced bisection bandwidth",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("throughput at baseline bisection (x=0.816): paper 93%%, measured %.0f%%", 100*atBaseline),
			fmt.Sprintf("throughput/cost optimum: paper x~0.7-0.8, measured x=%.2f", bestCostX),
		},
	}
}

// Fig2 places the four design points of the design-space figure: balanced
// mesh, 2x-bandwidth mesh, throughput-effective design, and the ideal NoC.
func (s *Suite) Fig2() *Report {
	tb := stats.NewTable("Fig 2: throughput-effective design space",
		"design", "avg IPC", "chip mm^2", "IPC/mm^2", "vs baseline")
	type point struct {
		name string
		cfg  func(workload.Profile) core.Config
		area area.NetworkArea
	}
	teCfg := core.ThroughputEffective(s.bench[0])
	teSingleCfg := core.ThroughputEffectiveSingle(s.bench[0])
	pts := []point{
		{"Balanced Mesh", core.Baseline, area.FromConfig(noc.DefaultConfig(), false)},
		{"2x BW", func(p workload.Profile) core.Config { return core.Baseline(p).With2xBW() },
			area.FromConfig(with2x(), false)},
		{"Thr. Eff.", core.ThroughputEffective, area.FromConfig(teCfg.Noc, true)},
		{"Thr. Eff. (1net)", core.ThroughputEffectiveSingle, area.FromConfig(teSingleCfg.Noc, false)},
		{"Ideal NoC", core.Perfect, area.NetworkArea{}},
	}
	builders := make([]func(workload.Profile) core.Config, len(pts))
	for i, pt := range pts {
		builders[i] = pt.cfg
	}
	s.prefetch(builders...)
	var baseEff float64
	var rows []string
	for _, pt := range pts {
		var ipcs []float64
		for _, p := range s.bench {
			ipcs = append(ipcs, s.run(pt.cfg(p)).IPC)
		}
		avg := stats.ArithmeticMean(ipcs)
		eff := avg / pt.area.Chip()
		if pt.name == "Balanced Mesh" {
			baseEff = eff
		}
		tb.AddRow(pt.name, avg, pt.area.Chip(), eff, pct(eff/baseEff))
		rows = append(rows, fmt.Sprintf("%s: %.3f IPC/mm^2", pt.name, eff))
	}
	_ = rows
	return &Report{
		ID:    "fig2",
		Title: "Design points in throughput vs inverse-area space",
		Table: tb,
		Summary: []string{
			"paper: Thr.Eff. strictly dominates 2x BW (more throughput/area); see rows above",
		},
	}
}

func with2x() noc.Config {
	cfg := noc.DefaultConfig()
	cfg.FlitBytes *= 2
	return cfg
}

// Headline computes the +25.4% IPC/mm² claim: Fig 20's HM IPC gain combined
// with Table VI's area reduction, for both the paper-exact combined design
// and the single-network variant.
func (s *Suite) Headline() *Report {
	baseArea := area.FromConfig(noc.DefaultConfig(), false)

	ratios := s.speedups(core.Baseline, core.ThroughputEffective)
	ipcGain := hm(ratios, nil)
	teArea := area.FromConfig(core.ThroughputEffective(s.bench[0]).Noc, true)
	gain := ipcGain * baseArea.Chip() / teArea.Chip()

	singleRatios := s.speedups(core.Baseline, core.ThroughputEffectiveSingle)
	singleIPC := hm(singleRatios, nil)
	singleArea := area.FromConfig(core.ThroughputEffectiveSingle(s.bench[0]).Noc, false)
	singleGain := singleIPC * baseArea.Chip() / singleArea.Chip()

	tb := stats.NewTable("Headline: throughput-effectiveness",
		"metric", "paper", "measured (paper cfg)", "measured (single net)")
	tb.AddRow("HM IPC gain", "+17%", pct(ipcGain), pct(singleIPC))
	tb.AddRow("chip area (mm^2)", 537.44, teArea.Chip(), singleArea.Chip())
	tb.AddRow("IPC/mm^2 gain", "+25.4%", pct(gain), pct(singleGain))
	return &Report{
		ID:    "headline",
		Title: "IPC per mm^2 of the combined design",
		Table: tb,
		Summary: []string{
			fmt.Sprintf("throughput-effectiveness gain, paper config: paper +25.4%%, measured %s", pct(gain)),
			fmt.Sprintf("throughput-effectiveness gain, single-network variant: measured %s", pct(singleGain)),
		},
	}
}
