// Package core assembles the paper's full system: SIMT compute cores, the
// on-chip network, and memory-controller nodes with L2 banks and GDDR3
// channels, driven in lockstep across three clock domains. It defines the
// named configurations evaluated in the paper (baseline top-bottom mesh,
// 2x-bandwidth, 1-cycle routers, checkerboard placement/routing, double
// network, multi-port MC routers, and the combined throughput-effective
// design) and runs closed-loop simulations that report application-level
// throughput (IPC) plus the network and memory statistics behind every
// figure in the evaluation.
package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/workload"
)

// NetworkKind selects the interconnect model.
type NetworkKind int

// Interconnect models.
const (
	// NetMesh is the cycle-level mesh (single physical network).
	NetMesh NetworkKind = iota
	// NetDouble is the channel-sliced pair of half-width meshes, one per
	// traffic class (§IV-C's dedicated form).
	NetDouble
	// NetDoubleBalanced is the load-balanced slicing alternative §IV-C
	// mentions: both slices carry both classes with protocol VCs.
	NetDoubleBalanced
	// NetPerfect is the zero-latency infinite-bandwidth network (Fig 7).
	NetPerfect
	// NetIdealCapped is zero-latency with an aggregate flit/cycle cap
	// (the Fig 6 limit study).
	NetIdealCapped
)

// String names the kind.
func (k NetworkKind) String() string {
	switch k {
	case NetMesh:
		return "mesh"
	case NetDouble:
		return "double"
	case NetDoubleBalanced:
		return "double-balanced"
	case NetPerfect:
		return "perfect"
	case NetIdealCapped:
		return "ideal-capped"
	}
	return fmt.Sprintf("net(%d)", int(k))
}

// Clocks holds the three domain frequencies in MHz (Table II).
type Clocks struct {
	CoreMHz float64
	IcntMHz float64
	DRAMMHz float64
}

// DefaultClocks returns the Table II frequencies.
func DefaultClocks() Clocks { return Clocks{CoreMHz: 1296, IcntMHz: 602, DRAMMHz: 1107} }

// Config is a full system configuration for one closed-loop run.
type Config struct {
	Name          string // configuration label (e.g. "TB-DOR")
	Net           NetworkKind
	Noc           noc.Config
	IdealCapFlits float64 // NetIdealCapped: accepted flits/cycle chip-wide
	Core          gpu.Config
	Mem           mem.Config
	Clocks        Clocks
	Workload      workload.Profile
	Seed          uint64
	MaxIcntCycles uint64 // safety stop; 0 means a generous default

	// NoIdleSkip disables dormancy elision: the loop normally stops
	// ticking a core, MC side or network whose work horizon has not
	// arrived (see Network.NextWorkCycle and the per-component SkipAhead
	// contracts in DESIGN.md) and pays its idle cycles with one skip
	// credit when an event wakes it. Elision changes wall-clock time only,
	// never results, so it is deliberately excluded from Name suffixes and
	// cache keys. The zero value keeps elision on; no CLI sets it. It is
	// the reference for the idle-skip equivalence tests and the IdleSkip
	// benchmark rows.
	NoIdleSkip bool
}

// Baseline returns the paper's baseline system (§II, Tables II/III) running
// profile p: 6×6 mesh with 16 B channels, DOR, 2 VCs, 4-stage routers and
// top-bottom MC placement.
func Baseline(p workload.Profile) Config {
	return Config{
		Name:     "TB-DOR",
		Net:      NetMesh,
		Noc:      noc.DefaultConfig(),
		Core:     gpu.DefaultConfig(),
		Mem:      mem.DefaultConfig(),
		Clocks:   DefaultClocks(),
		Workload: p,
		Seed:     1,
	}
}

// With2xBW doubles every channel width (the "2x BW" design point of
// Figs 2 and 9; Table VI shows why it is not throughput-effective).
func (c Config) With2xBW() Config {
	c.Name = "2x-TB-DOR"
	c.Noc.FlitBytes *= 2
	return c
}

// With1CycleRouters replaces the 4-stage pipeline with aggressive 1-cycle
// routers (§III-C).
func (c Config) With1CycleRouters() Config {
	c.Name = c.Name + "-1cyc"
	c.Noc.RouterStages = 1
	c.Noc.HalfRouterStages = 1
	return c
}

// WithCheckerboardPlacement staggers the MCs (CP) while keeping full
// routers and DOR (the Fig 16 configuration).
func (c Config) WithCheckerboardPlacement() Config {
	c.Name = "CP-DOR"
	c.Noc.MCs = noc.CheckerboardPlacement(c.Noc.Width, c.Noc.Height, len(c.Noc.MCs))
	return c
}

// WithVCs sets the VC count (Fig 17 compares 2 and 4 VCs).
func (c Config) WithVCs(n int) Config {
	c.Name = fmt.Sprintf("%s-%dVC", c.Name, n)
	c.Noc.NumVCs = n
	return c
}

// WithCheckerboardRouting turns on half-routers at odd-parity tiles and the
// checkerboard routing algorithm (§IV-A/B). Requires CP placement so MCs
// sit at half-router tiles; VCs must cover class × phase (4 on a single
// network).
func (c Config) WithCheckerboardRouting() Config {
	c.Name = "CP-CR"
	c.Noc.Checkerboard = true
	c.Noc.Routing = noc.RoutingCheckerboard
	c.Noc.MCs = noc.CheckerboardPlacement(c.Noc.Width, c.Noc.Height, len(c.Noc.MCs))
	if c.Net == NetMesh && c.Noc.NumVCs < 4 {
		c.Noc.NumVCs = 4
	}
	return c
}

// WithDoubleNetwork slices the channels into two half-width networks, one
// per traffic class (§IV-C). Each slice keeps 2 VCs (XY/YX under CR).
func (c Config) WithDoubleNetwork() Config {
	c.Name = "Double-" + c.Name
	c.Net = NetDouble
	c.Noc.NumVCs = 2
	return c
}

// WithBalancedDoubleNetwork slices the channels into two half-width
// networks that each carry both traffic classes, load-balanced round-robin
// per source. Each slice needs class x phase VCs (4 under CR).
func (c Config) WithBalancedDoubleNetwork() Config {
	c.Name = "BalDouble-" + c.Name
	c.Net = NetDoubleBalanced
	c.Noc.NumVCs = 4
	return c
}

// WithMCInjectionPorts sets the MC routers' injection port count (2P).
func (c Config) WithMCInjectionPorts(n int) Config {
	c.Name = fmt.Sprintf("%s-%dP", c.Name, n)
	c.Noc.MCInjPorts = n
	return c
}

// WithMCEjectionPorts sets the MC routers' ejection port count (2E).
func (c Config) WithMCEjectionPorts(n int) Config {
	c.Name = fmt.Sprintf("%s-%dE", c.Name, n)
	c.Noc.MCEjPorts = n
	return c
}

// ThroughputEffective returns the paper's combined design (Fig 20):
// checkerboard placement and routing, dedicated double network at half
// channel width, and 2 injection ports at MC routers.
func ThroughputEffective(p workload.Profile) Config {
	c := Baseline(p).WithCheckerboardRouting().WithDoubleNetwork().WithMCInjectionPorts(2)
	c.Name = "Thr.Eff."
	return c
}

// ThroughputEffectiveSingle is the combined design without channel
// slicing: checkerboard placement + routing and 2 MC injection ports on
// the single 16-byte network. In this reproduction the dedicated
// half-width reply slice halves reply bandwidth (see EXPERIMENTS.md), so
// this variant is where the paper's combined gains materialize.
func ThroughputEffectiveSingle(p workload.Profile) Config {
	c := Baseline(p).WithCheckerboardRouting().WithMCInjectionPorts(2)
	c.Name = "Thr.Eff.(1net)"
	return c
}

// Perfect returns the zero-latency infinite-bandwidth network system used
// as the limit in Figs 7 and 8.
func Perfect(p workload.Profile) Config {
	c := Baseline(p)
	c.Name = "Perfect"
	c.Net = NetPerfect
	return c
}

// WithTopology switches the interconnect substrate of a topology-neutral
// configuration (plain DOR, full routers) to another backend, retuning the
// router microarchitecture to the backend's natural operating point and
// suffixing Name so the design points never share result-cache keys:
//
//   - ring: 2-port Wu-style ring routers with minimal buffering (4 VCs =
//     class × dateline phase, 4-flit buffers, 2-stage pipeline);
//   - basejump: single-flit DOR mesh with full-width 64 B channels (one
//     packet per flit), one VC per class, 2-flit buffers, 2-stage pipeline.
//
// Mesh-specific features (checkerboard placement/routing, ROMM, channel
// slicing of single-flit networks) are rejected.
func (c Config) WithTopology(kind noc.BackendKind) (Config, error) {
	switch kind {
	case noc.BackendMesh:
		return c, nil
	case noc.BackendRing, noc.BackendBaseJump:
	default:
		return c, fmt.Errorf("core: unknown topology backend %v", kind)
	}
	if c.Noc.Topology == kind {
		return c, nil // already there (e.g. -topology ring on the Ring design point)
	}
	if c.Noc.Topology != noc.BackendMesh {
		return c, fmt.Errorf("core: %q is already a %v configuration, cannot re-target it to %v",
			c.Name, c.Noc.Topology, kind)
	}
	if c.Noc.Checkerboard || c.Noc.Routing != noc.RoutingDOR {
		return c, fmt.Errorf("core: %v topology requires a plain DOR full-router configuration, got %q", kind, c.Name)
	}
	if (c.Net == NetDouble || c.Net == NetDoubleBalanced) && kind == noc.BackendBaseJump {
		return c, fmt.Errorf("core: cannot channel-slice the single-flit basejump network")
	}
	c.Noc.Topology = kind
	switch kind {
	case noc.BackendRing:
		c.Name += "-ring"
		c.Noc.NumVCs = 4 // request/reply × dateline phase
		c.Noc.BufDepth = 4
		c.Noc.RouterStages = 2
		c.Noc.HalfRouterStages = 2 // unused (no half-routers), kept valid
	case noc.BackendBaseJump:
		c.Name += "-bj"
		c.Noc.FlitBytes = mem.MaxPacketBytes // widest packet rides in one flit
		c.Noc.NumVCs = 2                     // one VC per traffic class
		c.Noc.BufDepth = 2
		c.Noc.RouterStages = 2
		c.Noc.HalfRouterStages = 2
	}
	return c, nil
}

// Ring returns the Wu-style ring design point: the baseline system on a
// 36-node bidirectional ring with minimal-buffer 2-port routers.
func Ring(p workload.Profile) Config {
	c, err := Baseline(p).WithTopology(noc.BackendRing)
	if err != nil {
		panic(err) // Baseline is topology-neutral by construction
	}
	c.Name = "Ring"
	return c
}

// BaseJump returns the BaseJump-style design point: the baseline system on
// a single-flit DOR mesh with 64 B channels.
func BaseJump(p workload.Profile) Config {
	c, err := Baseline(p).WithTopology(noc.BackendBaseJump)
	if err != nil {
		panic(err)
	}
	c.Name = "BaseJump"
	return c
}

// IdealCapped returns a zero-latency network limited to capFlits accepted
// flits per interconnect cycle chip-wide (Fig 6).
func IdealCapped(p workload.Profile, capFlits float64) Config {
	c := Baseline(p)
	c.Name = fmt.Sprintf("Ideal-%.1ff", capFlits)
	c.Net = NetIdealCapped
	c.IdealCapFlits = capFlits
	return c
}

// CapForBWFraction converts a bandwidth limit expressed as a fraction of
// peak off-chip DRAM bandwidth (the Fig 6 x-axis) into accepted flits per
// interconnect cycle, using the paper's formula (footnote 3):
//
//	x = N [flits/iclk] * 16 [B/flit] * 602 [MHz] / (1107 [MHz] * 8 [MC] * 16 [B/mclk])
func (c Config) CapForBWFraction(x float64) float64 {
	numMC := float64(len(c.Noc.MCs))
	flitB := float64(c.Noc.FlitBytes)
	dramBytesPerCycle := 16.0
	return x * c.Clocks.DRAMMHz * numMC * dramBytesPerCycle / (flitB * c.Clocks.IcntMHz)
}

// WithFaults enables the network fault injector at the given master rate
// with its own seed (decorrelated from the traffic seed). The Name suffix
// keeps faulty runs from sharing result-cache keys with clean ones.
func (c Config) WithFaults(rate float64, seed uint64) Config {
	c.Name = fmt.Sprintf("%s-f%g", c.Name, rate)
	c.Noc.Fault = c.Noc.Fault.WithRate(rate, seed)
	return c
}

// WithWatchdog sets the health watchdog's no-movement window in
// interconnect cycles; 0 disables the watchdog, hop budget and audits.
func (c Config) WithWatchdog(cycles uint64) Config {
	c.Noc.Fault.WatchdogCycles = cycles
	return c
}

// ScaleWork multiplies the kernel length (instructions per warp) by f, for
// quick runs in tests and examples. f must be positive.
func (c Config) ScaleWork(f float64) Config {
	n := int(float64(c.Workload.InstrsPerWarp) * f)
	if n < 1 {
		n = 1
	}
	c.Workload.InstrsPerWarp = n
	return c
}

// Validate checks cross-component consistency.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.Clocks.CoreMHz <= 0 || c.Clocks.IcntMHz <= 0 || c.Clocks.DRAMMHz <= 0 {
		return fmt.Errorf("core: clock frequencies must be positive")
	}
	if c.Net == NetIdealCapped && c.IdealCapFlits <= 0 {
		return fmt.Errorf("core: NetIdealCapped needs a positive IdealCapFlits")
	}
	if len(c.Noc.MCs) == 0 {
		return fmt.Errorf("core: configuration has no memory controllers")
	}
	return nil
}
