// Package area is an ORION-2.0-style analytic area model for the paper's
// routers and links at 65 nm, with coefficients fitted to the paper's own
// Table VI (which was produced with ORION 2.0). It reproduces every row of
// that table to within a few percent and supplies the denominators for the
// throughput-effectiveness (IPC/mm²) results.
//
// Model shape:
//
//	crossbar  ∝ crosspoints · width²   (matrix crossbar)
//	buffers   ∝ total buffered bytes   (SRAM)
//	allocator ∝ (ports · VCs)²         (arbitration logic)
//	link      ∝ width                  (wires at fixed length)
package area

import (
	"fmt"

	"repro/internal/noc"
)

// Fitted coefficients (mm² units, 65 nm). Derived from Table VI row 1:
// a 5×5 16-byte 2VC×8 router has crossbar 1.73, buffers 0.17,
// allocator 0.004 and links of 0.175 per 16-byte channel.
const (
	xbarPerCrosspointByte2 = 1.73 / (25 * 16 * 16) // mm² per crosspoint·byte²
	bufferPerByte          = 0.17 / 1280           // 5 ports × 2 VCs × 8 flits × 16 B
	allocPerPortVC2        = 0.004 / (10 * 10)     // (5 ports × 2 VCs)²
	linkPerByte            = 0.175 / 16            // mm² per byte of channel width
)

// GTX280 die constants used by the paper (§V-F).
const (
	ChipAreaMM2    = 576.0
	ComputeAreaMM2 = 486.0
)

// RouterKind captures the connectivity patterns with distinct crossbars.
type RouterKind int

// Router kinds.
const (
	FullRouter RouterKind = iota
	HalfRouter
	// RingRouter has only the two East/West direction ports of the
	// bidirectional ring backend.
	RingRouter
)

// dirPorts is the number of direction (non-terminal) ports per kind.
func dirPorts(kind RouterKind) int {
	if kind == RingRouter {
		return 2
	}
	return 4
}

// Crosspoints returns the crossbar crosspoint count for a router with the
// given terminal port counts. A full mesh router connects every input to
// every output except U-turns; the paper counts a 5×5 crossbar for the
// baseline (§IV-A) and ~half for the half-router: injection→4 directions,
// 4 directions→ejection, E↔W and N↔S (12 points for 1 injection/ejection
// port, matching Table VI's 0.83 mm² at 16 B).
func Crosspoints(kind RouterKind, injPorts, ejPorts int) int {
	switch kind {
	case FullRouter:
		// (4 dirs + inj) × (4 dirs + ej), as the paper sizes it (5×5).
		return (4 + injPorts) * (4 + ejPorts)
	case HalfRouter:
		// inj→{N,S,E,W}, {N,S,E,W}→ej, E↔W, N↔S.
		return injPorts*4 + ejPorts*4 + 4
	case RingRouter:
		// (E + W + inj) × (E + W + ej): the full crossbar of a 2-direction
		// ring stop.
		return (2 + injPorts) * (2 + ejPorts)
	}
	panic(fmt.Sprintf("area: unknown router kind %d", kind))
}

// RouterArea is the per-component area of one router in mm².
type RouterArea struct {
	Crossbar  float64
	Buffer    float64
	Allocator float64
}

// Total returns the router's total area.
func (r RouterArea) Total() float64 { return r.Crossbar + r.Buffer + r.Allocator }

// Router computes the area of one router.
//
// channelBytes is the flit width; vcs and bufDepth describe each input
// port's buffering. Ports = 4 directions plus the given terminal ports.
func Router(kind RouterKind, channelBytes, vcs, bufDepth, injPorts, ejPorts int) RouterArea {
	w := float64(channelBytes)
	xp := float64(Crosspoints(kind, injPorts, ejPorts))
	inPorts := dirPorts(kind) + injPorts
	bufBytes := float64(inPorts * vcs * bufDepth * channelBytes)
	pv := float64(inPorts * vcs)
	return RouterArea{
		Crossbar:  xbarPerCrosspointByte2 * xp * w * w,
		Buffer:    bufferPerByte * bufBytes,
		Allocator: allocPerPortVC2 * pv * pv,
	}
}

// Link returns the area of one unidirectional mesh channel of the given
// width in bytes.
func Link(channelBytes int) float64 { return linkPerByte * float64(channelBytes) }

// NetworkArea is the chip-level network area breakdown.
type NetworkArea struct {
	Routers float64
	Links   float64
}

// NoC returns Routers + Links.
func (n NetworkArea) NoC() float64 { return n.Routers + n.Links }

// Chip returns the total die area assuming the paper's fixed compute area.
func (n NetworkArea) Chip() float64 { return ComputeAreaMM2 + n.NoC() }

// FromConfig computes the network area of any topology backend's
// configuration, including double (channel-sliced) networks when sliced is
// true: two networks at half channel width, mirroring noc.NewDouble. Router
// kinds follow the backend: mesh/basejump nodes are full (or checkerboard
// half-) routers, ring nodes are 2-direction ring stops, and the link count
// is the kernel's own channel enumeration (noc.LinkCount).
func FromConfig(cfg noc.Config, sliced bool) NetworkArea {
	copies := 1
	channel := cfg.FlitBytes
	if sliced {
		copies = 2
		channel = cfg.FlitBytes / 2
	}
	backend := noc.MustBuildBackend(cfg)
	ring := cfg.Topology == noc.BackendRing
	var routers float64
	for n := 0; n < backend.NumNodes(); n++ {
		node := noc.NodeID(n)
		kind := FullRouter
		switch {
		case ring:
			kind = RingRouter
		case backend.IsHalf(node):
			kind = HalfRouter
		}
		inj, ej := 1, 1
		if backend.IsMC(node) {
			inj, ej = cfg.MCInjPorts, cfg.MCEjPorts
		}
		routers += Router(kind, channel, cfg.NumVCs, cfg.BufDepth, inj, ej).Total()
	}
	links := float64(noc.LinkCount(backend)) * Link(channel)
	return NetworkArea{
		Routers: routers * float64(copies),
		Links:   links * float64(copies),
	}
}

// ThroughputEffectiveness returns IPC per mm² for a measured throughput on
// a chip with the given network area.
func ThroughputEffectiveness(ipc float64, n NetworkArea) float64 {
	return ipc / n.Chip()
}
