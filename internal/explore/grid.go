// Package explore is the design-space exploration engine: it enumerates a
// configurable grid over the axes the paper co-explores — topology, MC
// placement, VC count, buffer depth, channel width, routing algorithm and
// channel slicing — scores every candidate at full length, and returns
// the exact Pareto frontier of throughput-effectiveness (IPC against chip
// area). Every simulation goes through a runner.Pool, whose planner
// coalesces seed replicas into lane batches, and an interrupted
// exploration resumes from the pool's checkpoint journal.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/workload"
)

// Grid spans the design space. Every combination of the axes is a
// candidate; combinations the simulator rejects (VC plans that do not
// divide across class/phase sets, slicing a single-flit network,
// checkerboard routing without checkerboard placement) are filtered out
// during enumeration, not at run time.
type Grid struct {
	// Topologies lists backend substrates: "mesh", "ring", "basejump".
	Topologies []string
	// Placements lists MC placements for the mesh: "tb" (top-bottom
	// rows) or "cp" (checkerboard-staggered). Non-mesh backends keep
	// their natural placement.
	Placements []string
	// Routings lists mesh routing algorithms: "dor" or "cr"
	// (checkerboard routing, which requires "cp" placement and
	// half-routers). Non-mesh backends always route DOR.
	Routings []string
	// VCCounts lists virtual-channel counts per physical network.
	VCCounts []int
	// BufDepths lists per-VC buffer depths in flits.
	BufDepths []int
	// FlitBytes lists channel widths. The basejump backend ignores this
	// axis: its single-flit contract fixes the channel to the widest
	// packet.
	FlitBytes []int
	// Double adds the channel-sliced dedicated double network (§IV-C)
	// as an axis: false keeps the single network, true slices it into
	// two half-width class-dedicated networks.
	Double []bool
	// MCInjPorts lists injection-port counts at MC routers (the 2P axis).
	MCInjPorts []int
}

// DefaultGrid spans the paper's evaluation space plus the two non-mesh
// backends: 3 topologies, both MC placements, both routing algorithms,
// 2/4 VCs, 4/8-flit buffers, the paper's 16-byte baseline and 32-byte
// doubled channels, single and double networks, 1 or 2 MC injection ports.
// After validity filtering this enumerates on the order of a hundred
// candidates.
func DefaultGrid() Grid {
	return Grid{
		Topologies: []string{"mesh", "ring", "basejump"},
		Placements: []string{"tb", "cp"},
		Routings:   []string{"dor", "cr"},
		VCCounts:   []int{2, 4},
		BufDepths:  []int{4, 8},
		FlitBytes:  []int{16, 32},
		Double:     []bool{false, true},
		MCInjPorts: []int{1, 2},
	}
}

// PaperPointName is the canonical candidate name of the paper's combined
// throughput-effective design: checkerboard placement + routing, dedicated
// double network at 16-byte (pre-slice) channels with 2 VCs per slice, and
// 2 MC injection ports: core.ThroughputEffective in every Config field but
// Name. The validation check asserts this point is recovered on the
// frontier.
const PaperPointName = "x-mesh-cp-cr-vc2-bd8-fb16-p2-dbl"

// Candidate is one enumerated design point: the axis values, the canonical
// name that keys every run of the point, and its area under the analytic
// model (the denominator of throughput-effectiveness, identical for every
// workload).
type Candidate struct {
	Name string

	Topology  string
	Placement string
	Routing   string
	VCs       int
	BufDepth  int
	FlitB     int
	Double    bool
	InjPorts  int

	NoCArea  float64 // network overhead, mm²
	ChipArea float64 // compute + network, mm²
}

// Build instantiates the candidate for one workload. The returned config
// carries the candidate's canonical Name, which keys the design point's
// runs in the runner cache and journal (together with the benchmark, seed
// and kernel length).
func (c Candidate) Build(p workload.Profile) core.Config {
	cfg := core.Baseline(p)
	cfg.Noc.NumVCs = c.VCs
	cfg.Noc.BufDepth = c.BufDepth
	cfg.Noc.MCInjPorts = c.InjPorts
	switch c.Topology {
	case "ring":
		cfg.Noc.Topology = noc.BackendRing
		cfg.Noc.RouterStages = 2
		cfg.Noc.HalfRouterStages = 2
		cfg.Noc.FlitBytes = c.FlitB
	case "basejump":
		cfg.Noc.Topology = noc.BackendBaseJump
		cfg.Noc.RouterStages = 2
		cfg.Noc.HalfRouterStages = 2
		cfg.Noc.FlitBytes = c.FlitB // pinned to the single-flit width by enumeration
	default: // mesh
		cfg.Noc.FlitBytes = c.FlitB
		if c.Placement == "cp" {
			cfg.Noc.MCs = noc.CheckerboardPlacement(cfg.Noc.Width, cfg.Noc.Height, len(cfg.Noc.MCs))
		}
		if c.Routing == "cr" {
			cfg.Noc.Checkerboard = true
			cfg.Noc.Routing = noc.RoutingCheckerboard
		}
	}
	if c.Double {
		cfg.Net = core.NetDouble
	}
	cfg.Name = c.Name
	return cfg
}

// name derives the canonical candidate name from the axes. It doubles as
// the runner cache identity prefix, so it must be injective over the grid.
func (c Candidate) name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x-%s", c.Topology)
	if c.Topology == "mesh" {
		fmt.Fprintf(&b, "-%s-%s", c.Placement, c.Routing)
	}
	fmt.Fprintf(&b, "-vc%d-bd%d-fb%d-p%d", c.VCs, c.BufDepth, c.FlitB, c.InjPorts)
	if c.Double {
		b.WriteString("-dbl")
	}
	return b.String()
}

// singleFlitWidth is the basejump backend's fixed channel width: the widest
// packet must ride in one flit (mirrors core.Config.WithTopology).
func singleFlitWidth() int {
	w := mem.ReplyBytes
	if mem.WriteRequestBytes > w {
		w = mem.WriteRequestBytes
	}
	return w
}

// Candidates enumerates the grid, drops invalid combinations, names and
// prices the rest, and returns them sorted by name. Validity is decided by
// actually constructing the system (core.NewSystem) on a minimal workload,
// so the filter can never drift from the simulator's own rules.
func (g Grid) Candidates() ([]Candidate, error) {
	probe, err := workload.ByAbbr("MUM")
	if err != nil {
		return nil, err
	}
	probe.InstrsPerWarp = 1

	seen := make(map[string]bool)
	var out []Candidate
	for _, topo := range g.Topologies {
		placements, routings, flits := g.Placements, g.Routings, g.FlitBytes
		if topo != "mesh" {
			placements, routings = []string{"tb"}, []string{"dor"}
		}
		if topo == "basejump" {
			flits = []int{singleFlitWidth()}
		}
		for _, pl := range placements {
			for _, rt := range routings {
				if rt == "cr" && pl != "cp" {
					continue // checkerboard routing needs MCs at half-router tiles
				}
				for _, vc := range g.VCCounts {
					for _, bd := range g.BufDepths {
						for _, fb := range flits {
							for _, dbl := range g.Double {
								for _, inj := range g.MCInjPorts {
									c := Candidate{
										Topology: topo, Placement: pl, Routing: rt,
										VCs: vc, BufDepth: bd, FlitB: fb,
										Double: dbl, InjPorts: inj,
									}
									c.Name = c.name()
									if seen[c.Name] {
										continue // collapsed axes (non-mesh placements)
									}
									seen[c.Name] = true
									cfg := c.Build(probe)
									if _, err := core.NewSystem(cfg); err != nil {
										continue // the simulator rejects this combination
									}
									na := cfg.Area()
									c.NoCArea = na.NoC()
									c.ChipArea = na.Chip()
									out = append(out, c)
								}
							}
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: grid enumerates no valid candidates")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
