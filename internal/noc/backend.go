package noc

import (
	"fmt"

	"repro/internal/xrand"
)

// BackendKind selects the interconnect substrate a Config builds. The zero
// value is the 2D mesh, so existing configurations are unchanged.
type BackendKind int

// Topology backends.
const (
	// BackendMesh is the paper's 2D mesh (full or checkerboard routers,
	// DOR/CR/ROMM routing).
	BackendMesh BackendKind = iota
	// BackendRing is a Wu-style unified bidirectional ring: every node has
	// exactly two neighbours, shortest-path per-hop routing, and a dateline
	// VC discipline for deadlock freedom. Minimal buffering and 2-port
	// crossbars make it the area floor of the design space.
	BackendRing
	// BackendBaseJump is a BaseJump-style (Xie & Taylor) single-flit DOR
	// mesh: every packet is exactly one flit wide, routers run plain XY
	// routing on full-width channels, and the VC budget collapses to one
	// per traffic class.
	BackendBaseJump
)

// String names the backend.
func (k BackendKind) String() string {
	switch k {
	case BackendMesh:
		return "mesh"
	case BackendRing:
		return "ring"
	case BackendBaseJump:
		return "basejump"
	}
	return fmt.Sprintf("backend(%d)", int(k))
}

// ParseBackendKind resolves a -topology flag value.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "mesh":
		return BackendMesh, nil
	case "ring":
		return BackendRing, nil
	case "basejump":
		return BackendBaseJump, nil
	}
	return 0, fmt.Errorf("noc: unknown topology %q (want mesh, ring or basejump)", s)
}

// singleFlit reports whether the kind carries whole packets in one flit
// (checkable before a backend is built, e.g. by Double's slicing guard).
func (k BackendKind) singleFlit() bool { return k == BackendBaseJump }

// Backend abstracts the interconnect substrate behind the cycle kernel:
// node/channel enumeration, per-packet route planning and per-hop route
// computation, and MC placement validation. The kernel (routers, VCs,
// credits, NIs, fault injection) is backend-agnostic; a backend contributes
// only geometry and routing.
//
// Contract notes:
//   - Channels: the kernel wires one flit channel for every (node,
//     direction) with Neighbor >= 0, and Neighbor must be symmetric under
//     Port.opposite (Neighbor(Neighbor(n,d), d.opposite()) == n), so each
//     direction input has exactly one upstream router: the one that derives
//     its credits from that buffer, and to which lost credits return.
//   - NextHop may mutate the packet's phase state (checkerboard
//     intermediates, ring datelines); the router reads the allowed-VC set
//     after NextHop, so a phase flip applies to the outgoing link.
type Backend interface {
	// Kind identifies the backend.
	Kind() BackendKind
	// NumNodes returns the node count.
	NumNodes() int
	// Neighbor returns the node reached from n via direction d, or -1 when
	// the backend wires no channel there.
	Neighbor(n NodeID, d Port) NodeID
	// HopCount returns the minimal hop distance between two nodes; planned
	// routes never exceed it (two-phase routes are bounded by the sum over
	// their legs).
	HopCount(a, b NodeID) int
	// IsHalf reports whether node n holds a turn-restricted half-router.
	IsHalf(n NodeID) bool
	// IsMC reports whether node n hosts a memory controller.
	IsMC(n NodeID) bool
	// MCs returns the MC nodes in declaration order.
	MCs() []NodeID
	// ComputeNodes returns all non-MC nodes in id order.
	ComputeNodes() []NodeID
	// PlanRoute fills in a packet's routing state (YXPhase, Intermediate) at
	// injection time; scratch is an optional candidate buffer so hot-path
	// planning never allocates.
	PlanRoute(src, dst NodeID, rng *xrand.Rand, scratch []NodeID) (yxPhase bool, intermediate NodeID, err error)
	// NextHop performs per-hop route computation at router cur for packet p,
	// returning a direction port or eject=true.
	NextHop(cur NodeID, p *Packet) (out Port, eject bool)
	// Phases is how many VC phase classes routing needs (1 or 2); the VC
	// plan splits the VC budget across them.
	Phases() int
	// SingleFlit reports whether every packet must fit in one flit.
	SingleFlit() bool
	// Links returns the number of unidirectional channels (the area model's
	// link count).
	Links() int
}

// BuildBackend validates cfg's geometry/routing combination and builds its
// topology backend.
func BuildBackend(cfg Config) (Backend, error) {
	switch cfg.Topology {
	case BackendMesh:
		return newMeshBackend(cfg)
	case BackendRing:
		return newRingBackend(cfg)
	case BackendBaseJump:
		return newBaseJumpBackend(cfg)
	}
	return nil, fmt.Errorf("noc: unknown topology backend %d", int(cfg.Topology))
}

// MustBuildBackend is BuildBackend but panics on error (area model, tools).
func MustBuildBackend(cfg Config) Backend {
	b, err := BuildBackend(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// meshBackend is the 2D mesh behind the Backend interface: geometry and MC
// validation from Topology, routing from the precomputed per-phase tables.
// It is a thin adapter — planRoute/nextHop are shared with the standalone
// tracing helpers, so mesh behaviour is bit-identical to the pre-backend
// kernel.
type meshBackend struct {
	topo *Topology
	algo RoutingAlgo
}

func newMeshBackend(cfg Config) (*meshBackend, error) {
	if cfg.Routing == RoutingCheckerboard && !cfg.Checkerboard {
		return nil, fmt.Errorf("noc: checkerboard routing requires a checkerboard mesh")
	}
	if cfg.Routing == RoutingROMM && cfg.Checkerboard {
		return nil, fmt.Errorf("noc: ROMM turns anywhere and needs full routers")
	}
	topo, err := NewTopology(cfg.Width, cfg.Height, cfg.Checkerboard, cfg.MCs)
	if err != nil {
		return nil, err
	}
	return &meshBackend{topo: topo, algo: cfg.Routing}, nil
}

func (b *meshBackend) Kind() BackendKind                { return BackendMesh }
func (b *meshBackend) NumNodes() int                    { return b.topo.NumNodes() }
func (b *meshBackend) Neighbor(n NodeID, d Port) NodeID { return b.topo.Neighbor(n, d) }
func (b *meshBackend) HopCount(a, c NodeID) int         { return b.topo.HopCount(a, c) }
func (b *meshBackend) IsHalf(n NodeID) bool             { return b.topo.IsHalf(n) }
func (b *meshBackend) IsMC(n NodeID) bool               { return b.topo.IsMC(n) }
func (b *meshBackend) MCs() []NodeID                    { return b.topo.MCs() }
func (b *meshBackend) ComputeNodes() []NodeID           { return b.topo.ComputeNodes() }
func (b *meshBackend) SingleFlit() bool                 { return false }
func (b *meshBackend) topology() *Topology              { return b.topo }

func (b *meshBackend) PlanRoute(src, dst NodeID, rng *xrand.Rand, scratch []NodeID) (bool, NodeID, error) {
	return planRouteScratch(b.topo, b.algo, src, dst, rng, scratch)
}

func (b *meshBackend) NextHop(cur NodeID, p *Packet) (Port, bool) {
	return nextHop(b.topo, cur, p)
}

// Phases: two-phase algorithms (CR, ROMM) need disjoint XY and YX VC
// classes; plain DOR needs one.
func (b *meshBackend) Phases() int {
	if b.algo != RoutingDOR {
		return 2
	}
	return 1
}

func (b *meshBackend) Links() int { return MeshLinkCount(b.topo.Width, b.topo.Height) }

// MeshLinkCount returns the number of unidirectional channels in a W×H mesh.
func MeshLinkCount(width, height int) int {
	return 2 * (width*(height-1) + height*(width-1))
}

// basejumpBackend is the BaseJump-style single-flit DOR mesh: mesh geometry
// and XY routing (always full routers), but whole packets ride in one
// full-width flit, so wormhole state, multi-flit credits and deep VC budgets
// all collapse. The kernel enforces the one-flit contract at injection.
type basejumpBackend struct {
	meshBackend
}

func newBaseJumpBackend(cfg Config) (*basejumpBackend, error) {
	if cfg.Checkerboard {
		return nil, fmt.Errorf("noc: basejump topology uses full routers only (Checkerboard must be off)")
	}
	if cfg.Routing != RoutingDOR {
		return nil, fmt.Errorf("noc: basejump topology routes XY DOR only, got %v", cfg.Routing)
	}
	mb, err := newMeshBackend(cfg)
	if err != nil {
		return nil, err
	}
	return &basejumpBackend{meshBackend: *mb}, nil
}

func (b *basejumpBackend) Kind() BackendKind { return BackendBaseJump }
func (b *basejumpBackend) SingleFlit() bool  { return true }
