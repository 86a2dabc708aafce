package noc

import (
	"fmt"

	"repro/internal/xrand"
)

// RoutingAlgo selects the oblivious routing algorithm of a network.
type RoutingAlgo int

// Routing algorithms.
const (
	// RoutingDOR is dimension-order XY routing (baseline, Table III).
	RoutingDOR RoutingAlgo = iota
	// RoutingCheckerboard is the paper's two-phase checkerboard routing
	// (§IV-B): XY by default, YX for full→half routes whose XY turn lands
	// on a half-router (case 1), and YX-then-XY through a random
	// intermediate full-router for half→half routes neither DOR can serve
	// (case 2).
	RoutingCheckerboard
	// RoutingROMM is two-phase ROMM (Nesson & Johnsson), the algorithm the
	// paper compares checkerboard routing against (§VI): every packet
	// routes YX to a random intermediate node in the minimal quadrant and
	// XY onward. It requires full routers (turns anywhere), so it is the
	// natural ablation partner for checkerboard routing.
	RoutingROMM
)

// String names the algorithm.
func (r RoutingAlgo) String() string {
	switch r {
	case RoutingDOR:
		return "DOR"
	case RoutingCheckerboard:
		return "CR"
	case RoutingROMM:
		return "ROMM"
	}
	return fmt.Sprintf("routing(%d)", int(r))
}

// PlanRoute fills in a packet's routing state (YXPhase, Intermediate) at
// injection time under the mesh's routing algorithm. DOR is always XY;
// checkerboard routing implements the case analysis of §IV-B, and ROMM picks
// a random minimal-quadrant intermediate. scratch is the candidate buffer
// for intermediate selection: a network passes one sized to the node count
// so hot-path planning never allocates, and a nil scratch allocates. It
// returns an error for source/destination pairs the checkerboard network
// cannot route (full→full with an odd column offset on different rows),
// which do not occur when MCs and cache banks are placed at half-routers.
func (t *Topology) PlanRoute(src, dst NodeID, rng *xrand.Rand, scratch []NodeID) (yxPhase bool, intermediate NodeID, err error) {
	intermediate = -1
	if t.algo == RoutingDOR || src == dst {
		return false, -1, nil
	}
	cs, cd := t.Coord(src), t.Coord(dst)
	if cs.X == cd.X || cs.Y == cd.Y {
		// Straight routes never turn, so half-routers do not constrain them
		// and they are deadlock-free on either VC class; spreading them over
		// both phases' VCs balances load (the YX header bit is free to set).
		return rng.Intn(2) == 1, -1, nil
	}
	if t.algo == RoutingROMM {
		// Two-phase ROMM: YX to a random minimal-quadrant intermediate,
		// then XY. Needs full routers for the unrestricted turns.
		xlo, xhi := minMax(cs.X, cd.X)
		ylo, yhi := minMax(cs.Y, cd.Y)
		w := t.Node(xlo+rng.Intn(xhi-xlo+1), ylo+rng.Intn(yhi-ylo+1))
		if w == src || w == dst {
			return rng.Intn(2) == 1, -1, nil // degenerate pick: plain DOR
		}
		return true, w, nil
	}
	// The XY turn happens at (dst.X, src.Y); the YX turn at (src.X, dst.Y).
	// A turn is only possible at a full router.
	if !t.IsHalf(t.Node(cd.X, cs.Y)) {
		return false, -1, nil // XY legal
	}
	if !t.IsHalf(t.Node(cs.X, cd.Y)) {
		return true, -1, nil // case 1: YX legal
	}
	// Case 2: half→half an even number of columns apart on different rows.
	// Route YX to an intermediate full-router in the minimal quadrant that
	// is not in the source row and an even number of columns from the
	// source, then XY to the destination.
	if !t.IsHalf(src) || !t.IsHalf(dst) {
		return false, -1, fmt.Errorf("noc: no checkerboard route from %v to %v (full-router pair with odd offset)", cs, cd)
	}
	inter, ok := pickIntermediate(t, cs, cd, rng, scratch)
	if !ok {
		return false, -1, fmt.Errorf("noc: no intermediate full-router between %v and %v", cs, cd)
	}
	return true, inter, nil
}

// pickIntermediate selects a random full-router W in the minimal quadrant
// spanned by src and dst with W.Y != src.Y and W.X an even column offset
// from src. Both routing phases (YX src→W, XY W→dst) are then turn-legal.
// Candidates accumulate in scratch (its backing array, when capacious
// enough, is reused without allocation).
func pickIntermediate(t *Topology, cs, cd Coord, rng *xrand.Rand, scratch []NodeID) (NodeID, bool) {
	xlo, xhi := minMax(cs.X, cd.X)
	ylo, yhi := minMax(cs.Y, cd.Y)
	candidates := scratch[:0]
	for y := ylo; y <= yhi; y++ {
		if y == cs.Y {
			continue
		}
		for x := xlo; x <= xhi; x++ {
			if (x-cs.X)%2 != 0 {
				continue
			}
			n := t.Node(x, y)
			if !t.IsHalf(n) {
				candidates = append(candidates, n)
			}
		}
	}
	if len(candidates) == 0 {
		return -1, false
	}
	return candidates[rng.Intn(len(candidates))], true
}

func minMax(a, b int) (int, int) {
	if a < b {
		return a, b
	}
	return b, a
}

// NextHop performs per-hop route computation at router cur for packet p,
// returning either a direction port or eject=true. It consumes the packet's
// phase state: reaching the intermediate node switches a case-2 packet from
// its YX phase to the final XY phase. The directional decision itself is a
// single load from the topology's precomputed per-phase route tables
// (cur != target always holds by the time the table is consulted).
func (t *Topology) NextHop(cur NodeID, p *Packet) (out Port, eject bool) {
	if cur == p.Dst {
		return 0, true
	}
	if p.Intermediate >= 0 && cur == p.Intermediate {
		p.Intermediate = -1
		p.YXPhase = false
	}
	target := p.Dst
	if p.Intermediate >= 0 {
		target = p.Intermediate
	}
	phase := 0
	if p.YXPhase {
		phase = 1
	}
	return Port(t.routes[phase][int(cur)*t.width*t.height+int(target)]), false
}

func horizontal(from, to Coord) Port {
	if to.X > from.X {
		return East
	}
	return West
}

func vertical(from, to Coord) Port {
	if to.Y > from.Y {
		return South
	}
	return North
}
