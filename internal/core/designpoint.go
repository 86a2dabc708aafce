package core

import (
	"repro/internal/area"
	"repro/internal/noc"
	"repro/internal/workload"
)

// DesignPoint is one named design point of the evaluation. Name is the
// label every result, tesimd request and experiment table carries (it
// equals Build(p).Name); Alias is its lower-case tesim -config spelling.
type DesignPoint struct {
	Name, Alias string
	Build       func(workload.Profile) Config
}

// DesignPoints lists the design points in evaluation order: the paper's
// mesh variants, the combined designs, the perfect network, then the two
// non-mesh backends.
func DesignPoints() []DesignPoint {
	return []DesignPoint{
		{"TB-DOR", "baseline", Baseline},
		{"2x-TB-DOR", "2xbw", func(p workload.Profile) Config { return Baseline(p).With2xBW() }},
		{"TB-DOR-1cyc", "1cycle", func(p workload.Profile) Config { return Baseline(p).With1CycleRouters() }},
		{"CP-DOR", "cp", func(p workload.Profile) Config { return Baseline(p).WithCheckerboardPlacement() }},
		{"CP-ROMM", "romm", cpROMM},
		{"CP-CR", "cpcr", func(p workload.Profile) Config { return Baseline(p).WithCheckerboardRouting() }},
		{"Double-CP-CR", "double", func(p workload.Profile) Config {
			return Baseline(p).WithCheckerboardRouting().WithDoubleNetwork()
		}},
		{"Thr.Eff.", "te", ThroughputEffective},
		{"Thr.Eff.(1net)", "te1net", ThroughputEffectiveSingle},
		{"Perfect", "perfect", Perfect},
		{"Ring", "ring", Ring},
		{"BaseJump", "basejump", BaseJump},
	}
}

// DesignPointNamed returns the design point called name.
func DesignPointNamed(name string) (DesignPoint, bool) {
	for _, d := range DesignPoints() {
		if d.Name == name {
			return d, true
		}
	}
	return DesignPoint{}, false
}

// cpROMM is checkerboard placement with full routers and two-phase ROMM
// routing, which needs class × phase VCs.
func cpROMM(p workload.Profile) Config {
	c := Baseline(p).WithCheckerboardPlacement()
	c.Name = "CP-ROMM"
	c.Noc.Routing = noc.RoutingROMM
	c.Noc.NumVCs = 4
	return c
}

// Area prices the network under the analytic area model. Both double
// networks are two half-width slices of Noc (noc.NewDouble); the ideal
// networks have no routers or links to price.
func (c Config) Area() area.NetworkArea {
	switch c.Net {
	case NetPerfect, NetIdealCapped:
		return area.NetworkArea{}
	}
	return area.FromConfig(c.Noc, c.Net == NetDouble || c.Net == NetDoubleBalanced)
}
