package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// openLoopRates is the offered-load sweep in flits/cycle/compute-node.
func openLoopRates() []float64 {
	return []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.12}
}

// Fig21 sweeps offered load for uniform-random and hotspot
// many-to-few-to-many traffic on the five configurations (paper: CP, CR
// and especially 2P push out the saturation point; hotspot hurts TB most).
func (s *Suite) Fig21() *Report {
	var summary []string
	tb := stats.NewTable("Fig 21: open-loop latency vs offered load",
		"pattern", "config", "offered", "accepted", "latency", "saturated")
	configs := []struct {
		name  string
		build func(workload.Profile) core.Config
	}{
		{"TB-DOR", core.Baseline},
		{"CP-DOR", builder("CP-DOR")},
		{"CP-CR", builder("CP-CR")},
		{"CP-CR-2P", core.ThroughputEffectiveSingle},
		{"2x-TB-DOR", builder("2x-TB-DOR")},
	}
	for _, pattern := range []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot} {
		for _, c := range configs {
			runner := traffic.NewMeshRunner(c.build(s.bench[0]).Noc)
			base := traffic.DefaultConfig()
			base.Pattern = pattern
			// Keep the sweep cheap in quick mode.
			if s.opts.Scale < 1 {
				base.WarmupCycles = 500
				base.MeasureCycles = 2000
				base.DrainCycles = 4000
			}
			knee := 0.0
			zeroLoad := 0.0
			for _, rate := range openLoopRates() {
				cfg := base
				cfg.InjectionRate = rate
				res := runner.Run(cfg)
				if zeroLoad == 0 {
					zeroLoad = res.AvgLatency
				}
				sat := "no"
				if res.Saturated {
					sat = "yes"
				}
				// The knee: highest load with latency below 1.5x zero-load
				// and no saturation.
				if !res.Saturated && res.AvgLatency < 1.5*zeroLoad {
					knee = rate
				}
				tb.AddRow(pattern.String(), c.name, res.OfferedLoad, res.AcceptedLoad,
					res.AvgLatency, sat)
			}
			summary = append(summary,
				fmt.Sprintf("%s %s: latency knee at offered load ~%.3f flits/cyc/node",
					pattern, c.name, knee))
		}
	}
	return &Report{
		ID:      "fig21",
		Title:   "Open-loop many-to-few-to-many evaluation",
		Table:   tb,
		Summary: summary,
	}
}
