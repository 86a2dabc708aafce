package noc

import (
	"fmt"

	"repro/internal/xrand"
)

// ringBackend is a Wu-style unified bidirectional ring: Width×Height nodes
// in id order around a circle, each wired only East ((n+1) mod N) and West
// ((n-1) mod N). Per-hop routing takes the shorter arc (East on ties), which
// is stable under per-hop recomputation because the remaining clockwise
// distance shrinks monotonically along the chosen direction.
//
// Deadlock freedom uses the classic dateline discipline instead of turn
// restrictions: the phase-0 VC class is used until a packet crosses a
// dateline link — East over N-1→0 or West over 0→N-1 — where NextHop flips
// the packet's phase bit so the outgoing link and every later hop allocate
// from the phase-1 class. Each direction's channel cycle is thus broken at
// its dateline, and a minimal route (≤ ⌊N/2⌋ hops) can never cross the same
// dateline twice, so phase 1 is acyclic. The ring therefore needs two VC
// phases (Config.phases), and with split traffic classes the VC budget must
// divide by 4.
type ringBackend struct {
	nodeRoles
	n int
}

func newRingBackend(cfg Config) (*ringBackend, error) {
	n := cfg.Width * cfg.Height
	if n < 4 {
		return nil, fmt.Errorf("noc: ring needs at least 4 nodes, got %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Checkerboard {
		return nil, fmt.Errorf("noc: ring topology has no half-routers (Checkerboard must be off)")
	}
	if cfg.Routing != RoutingDOR {
		return nil, fmt.Errorf("noc: ring topology routes shortest-arc only (set Routing to DOR), got %v", cfg.Routing)
	}
	b := &ringBackend{n: n}
	if err := b.nodeRoles.init(n, fmt.Sprintf("%d-node ring", n), cfg.MCs); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *ringBackend) NumNodes() int      { return b.n }
func (b *ringBackend) IsHalf(NodeID) bool { return false }

// Neighbor wires only the East/West ports; North/South carry no channels.
func (b *ringBackend) Neighbor(n NodeID, d Port) NodeID {
	switch d {
	case East:
		return NodeID((int(n) + 1) % b.n)
	case West:
		return NodeID((int(n) - 1 + b.n) % b.n)
	case North, South:
		return -1
	}
	panic("noc: Neighbor of non-direction port")
}

// HopCount is the shorter arc between a and c.
func (b *ringBackend) HopCount(a, c NodeID) int {
	cw := int(c) - int(a)
	if cw < 0 {
		cw += b.n
	}
	if ccw := b.n - cw; ccw < cw {
		return ccw
	}
	return cw
}

// PlanRoute is trivial: the ring picks its direction per hop and starts
// every packet in the phase-0 VC class.
func (b *ringBackend) PlanRoute(src, dst NodeID, rng *xrand.Rand, scratch []NodeID) (bool, NodeID, error) {
	return false, -1, nil
}

// NextHop takes the shorter arc (East on ties) and flips the packet to the
// phase-1 VC class when the chosen hop crosses that direction's dateline.
// The router reads the allowed-VC set after NextHop, so the flip governs the
// dateline link itself, not just the hops beyond it.
func (b *ringBackend) NextHop(cur NodeID, p *Packet) (Port, bool) {
	if cur == p.Dst {
		return 0, true
	}
	cw := int(p.Dst) - int(cur)
	if cw < 0 {
		cw += b.n
	}
	if cw <= b.n-cw {
		if int(cur) == b.n-1 {
			p.YXPhase = true
		}
		return East, false
	}
	if cur == 0 {
		p.YXPhase = true
	}
	return West, false
}
