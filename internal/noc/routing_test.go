package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// routedMesh builds the 6x6 mesh backend routed by algo, with checkerboard
// routers exactly when algo is checkerboard routing.
func routedMesh(algo RoutingAlgo, mcs []NodeID) *Topology {
	cfg := Config{Width: 6, Height: 6, Checkerboard: algo == RoutingCheckerboard, Routing: algo, MCs: mcs}
	return MustBuildBackend(cfg).(*Topology)
}

// walkRoute follows a planned route hop by hop, validating every turn
// against router connectivity, and returns the hop count.
func walkRoute(t *testing.T, topo *Topology, src, dst NodeID, rng *xrand.Rand) int {
	t.Helper()
	yx, inter, err := topo.PlanRoute(src, dst, rng, nil)
	if err != nil {
		t.Fatalf("PlanRoute(%d->%d): %v", src, dst, err)
	}
	p := &Packet{Src: src, Dst: dst, YXPhase: yx, Intermediate: inter}
	cur := src
	inPort := -1 // injected
	hops := 0
	for {
		out, eject := topo.NextHop(cur, p)
		if eject {
			return hops
		}
		// A turn at a half-router is only legal going straight through.
		if inPort >= 0 && topo.IsHalf(cur) {
			if Port(out) != Port(inPort).opposite() {
				t.Fatalf("route %d->%d turns at half-router %d (in %v out %v)",
					src, dst, cur, Port(inPort), out)
			}
		}
		next := topo.Neighbor(cur, out)
		if next < 0 {
			t.Fatalf("route %d->%d walks off the mesh at %d via %v", src, dst, cur, out)
		}
		inPort = int(out.opposite())
		cur = next
		hops++
		if hops > topo.NumNodes()*2 {
			t.Fatalf("route %d->%d did not terminate", src, dst)
		}
	}
}

func TestDORRouteShape(t *testing.T) {
	topo := MustNewTopology(6, 6, false, nil)
	rng := xrand.New(1)
	// XY: x first. From (0,0) to (3,2): 3 east then 2 south.
	p := &Packet{Src: topo.Node(0, 0), Dst: topo.Node(3, 2), Intermediate: -1}
	var ports []Port
	cur := p.Src
	for {
		out, eject := topo.NextHop(cur, p)
		if eject {
			break
		}
		ports = append(ports, out)
		cur = topo.Neighbor(cur, out)
	}
	want := []Port{East, East, East, South, South}
	if len(ports) != len(want) {
		t.Fatalf("route = %v, want %v", ports, want)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("route = %v, want %v", ports, want)
		}
	}
	_ = rng
}

func TestDORMinimalForAllPairs(t *testing.T) {
	topo := MustNewTopology(6, 6, false, nil)
	rng := xrand.New(2)
	for s := 0; s < topo.NumNodes(); s++ {
		for d := 0; d < topo.NumNodes(); d++ {
			if s == d {
				continue
			}
			hops := walkRoute(t, topo, NodeID(s), NodeID(d), rng)
			if hops != topo.HopCount(NodeID(s), NodeID(d)) {
				t.Fatalf("DOR %d->%d: %d hops, want %d", s, d, hops, topo.HopCount(NodeID(s), NodeID(d)))
			}
		}
	}
}

func TestCheckerboardRoutingAllMixedPairs(t *testing.T) {
	// Every pair with at least one half-router endpoint must route legally
	// and minimally (checkerboard routing is minimal, §V-C).
	topo := routedMesh(RoutingCheckerboard, nil)
	rng := xrand.New(3)
	checked := 0
	for s := 0; s < topo.NumNodes(); s++ {
		for d := 0; d < topo.NumNodes(); d++ {
			if s == d {
				continue
			}
			src, dst := NodeID(s), NodeID(d)
			if !topo.IsHalf(src) && !topo.IsHalf(dst) {
				cs, cd := topo.Coord(src), topo.Coord(dst)
				if cs.X != cd.X && cs.Y != cd.Y && (cs.X-cd.X)%2 != 0 {
					continue // unroutable full->full pair, excluded by construction
				}
			}
			hops := walkRoute(t, topo, src, dst, rng)
			if hops != topo.HopCount(src, dst) {
				t.Fatalf("CR %d->%d: %d hops, want %d (not minimal)", s, d, hops, topo.HopCount(src, dst))
			}
			checked++
		}
	}
	if checked < 900 {
		t.Errorf("only %d pairs checked; expected most of the 1260", checked)
	}
}

func TestCheckerboardCase1UsesYX(t *testing.T) {
	topo := routedMesh(RoutingCheckerboard, nil)
	rng := xrand.New(4)
	// Full (0,0) -> half (1,2): odd column offset, different row, XY turn at
	// (1,0) which is half => YX required.
	src, dst := topo.Node(0, 0), topo.Node(1, 2)
	yx, inter, err := topo.PlanRoute(src, dst, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !yx || inter != -1 {
		t.Errorf("case 1 plan = (yx=%v inter=%d), want pure YX", yx, inter)
	}
}

func TestCheckerboardCase2UsesIntermediate(t *testing.T) {
	topo := routedMesh(RoutingCheckerboard, nil)
	rng := xrand.New(5)
	// Half (1,0) -> half (3,2): even column offset, different row, both DOR
	// turn nodes are half => two-phase route via a full intermediate.
	src, dst := topo.Node(1, 0), topo.Node(3, 2)
	yx, inter, err := topo.PlanRoute(src, dst, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !yx || inter < 0 {
		t.Fatalf("case 2 plan = (yx=%v inter=%d), want YX phase with intermediate", yx, inter)
	}
	ci, cs := topo.Coord(inter), topo.Coord(src)
	if topo.IsHalf(inter) {
		t.Error("intermediate must be a full router")
	}
	if ci.Y == cs.Y {
		t.Error("intermediate must not share the source row")
	}
	if (ci.X-cs.X)%2 != 0 {
		t.Error("intermediate must be an even number of columns from the source")
	}
}

func TestCheckerboardIntermediateRandomized(t *testing.T) {
	// Different RNG streams should (eventually) pick different intermediates
	// when several candidates exist.
	topo := routedMesh(RoutingCheckerboard, nil)
	src, dst := topo.Node(1, 0), topo.Node(5, 4)
	seen := map[NodeID]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		_, inter, err := topo.PlanRoute(src, dst, xrand.New(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[inter] = true
	}
	if len(seen) < 2 {
		t.Errorf("intermediate selection not randomized: always %v", seen)
	}
}

func TestCheckerboardStraightRoutesLegal(t *testing.T) {
	topo := routedMesh(RoutingCheckerboard, nil)
	rng := xrand.New(6)
	// Same row/column routes pass straight through half-routers.
	for _, pair := range [][2]NodeID{
		{topo.Node(0, 0), topo.Node(5, 0)},
		{topo.Node(2, 0), topo.Node(2, 5)},
		{topo.Node(1, 3), topo.Node(4, 3)},
	} {
		_, inter, err := topo.PlanRoute(pair[0], pair[1], rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inter != -1 {
			t.Errorf("straight route %v planned an intermediate (%d)", pair, inter)
		}
		walkRoute(t, topo, pair[0], pair[1], rng)
	}
}

func TestCheckerboardUnroutableFullFullPair(t *testing.T) {
	topo := routedMesh(RoutingCheckerboard, nil)
	rng := xrand.New(7)
	// Full (0,0) -> full (1,1): odd column offset, different rows. §IV-A:
	// cannot be routed without ejection at an intermediate node.
	if _, _, err := topo.PlanRoute(topo.Node(0, 0), topo.Node(1, 1), rng, nil); err == nil {
		t.Error("unroutable full->full pair accepted")
	}
}

func TestPlanRoutePropertyMCTraffic(t *testing.T) {
	// Property: for the paper's actual traffic (compute<->MC with MCs at
	// half-routers), planning always succeeds and routes are minimal.
	topo := routedMesh(RoutingCheckerboard, CheckerboardPlacement(6, 6, 8))
	rng := xrand.New(8)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	f := func(ci, mi uint8, toMC bool) bool {
		c := comp[int(ci)%len(comp)]
		m := mcs[int(mi)%len(mcs)]
		src, dst := c, m
		if !toMC {
			src, dst = m, c
		}
		if src == dst {
			return true
		}
		yx, inter, err := topo.PlanRoute(src, dst, rng, nil)
		if err != nil {
			return false
		}
		p := &Packet{Src: src, Dst: dst, YXPhase: yx, Intermediate: inter}
		cur := src
		hops := 0
		for cur != dst {
			out, eject := topo.NextHop(cur, p)
			if eject {
				return false
			}
			cur = topo.Neighbor(cur, out)
			if cur < 0 {
				return false
			}
			hops++
			if hops > 100 {
				return false
			}
		}
		return hops == topo.HopCount(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextHopPhaseSwitchAtIntermediate(t *testing.T) {
	topo := routedMesh(RoutingCheckerboard, nil)
	src, dst := topo.Node(1, 0), topo.Node(3, 2)
	inter := topo.Node(1, 2) // full router: (1+2) odd? 3 odd -> half! pick (3,... )
	// Choose a valid intermediate manually: full, not src row, even columns
	// from src: (1,1): parity 2 even -> full, row 1 != 0, dx 0 even. Valid.
	inter = topo.Node(1, 1)
	p := &Packet{Src: src, Dst: dst, YXPhase: true, Intermediate: inter}
	cur := src
	sawSwitch := false
	for cur != dst {
		before := p.YXPhase
		out, eject := topo.NextHop(cur, p)
		if eject {
			t.Fatal("premature ejection")
		}
		if before && !p.YXPhase {
			if cur != inter {
				t.Fatalf("phase switched at %d, want %d", cur, inter)
			}
			sawSwitch = true
		}
		cur = topo.Neighbor(cur, out)
	}
	if !sawSwitch {
		t.Error("no phase switch observed")
	}
	if p.Intermediate != -1 || p.YXPhase {
		t.Error("packet state not cleared after phase switch")
	}
}

func TestROMMDeliversMinimally(t *testing.T) {
	topo := routedMesh(RoutingROMM, nil)
	rng := xrand.New(17)
	for s := 0; s < topo.NumNodes(); s++ {
		for d := 0; d < topo.NumNodes(); d++ {
			if s == d {
				continue
			}
			hops := walkRoute(t, topo, NodeID(s), NodeID(d), rng)
			if hops != topo.HopCount(NodeID(s), NodeID(d)) {
				t.Fatalf("ROMM %d->%d: %d hops, want %d", s, d, hops, topo.HopCount(NodeID(s), NodeID(d)))
			}
		}
	}
}

func TestROMMIntermediateInMinimalQuadrant(t *testing.T) {
	topo := routedMesh(RoutingROMM, nil)
	for seed := uint64(0); seed < 20; seed++ {
		src, dst := topo.Node(1, 1), topo.Node(4, 4)
		_, inter, err := topo.PlanRoute(src, dst, xrand.New(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		if inter < 0 {
			continue // degenerate pick fell back to DOR
		}
		c := topo.Coord(inter)
		if c.X < 1 || c.X > 4 || c.Y < 1 || c.Y > 4 {
			t.Fatalf("intermediate %v outside minimal quadrant", c)
		}
	}
}

func TestROMMRejectedOnCheckerboard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingROMM
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	if _, err := NewMesh(cfg); err == nil {
		t.Error("ROMM accepted on a checkerboard mesh")
	}
}

func TestROMMMeshTrafficDrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Routing = RoutingROMM
	cfg.NumVCs = 4
	crossTraffic(t, cfg, 1500, 44)
}

// TestPlanRouteAndNextHop traces a case-2 route on the CP-CR backend the
// way a tool would, through the backend's own PlanRoute and NextHop: the
// route turns at its intermediate and ejects at its destination within the
// two legs' hop bound, and an unroutable full→full pair is an error.
func TestPlanRouteAndNextHop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	b, err := BuildBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := b.(*Topology)
	rng := xrand.New(9)
	// Half (1,0), a compute node, to the MC at half (3,2): both DOR turns
	// land on half-routers, so the route needs an intermediate.
	src, dst := topo.Node(1, 0), topo.Node(3, 2)
	if b.IsMC(src) || !b.IsMC(dst) {
		t.Fatalf("want a compute->MC pair, got %d->%d", src, dst)
	}
	yx, inter, err := b.PlanRoute(src, dst, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !yx || inter < 0 {
		t.Fatalf("case 2 plan = (yx=%v inter=%d), want YX phase with intermediate", yx, inter)
	}
	pkt := &Packet{Src: src, Dst: dst, YXPhase: yx, Intermediate: inter}
	bound := b.HopCount(src, inter) + b.HopCount(inter, dst)
	cur, visited := src, false
	for hops := 0; ; hops++ {
		visited = visited || cur == inter
		out, eject := b.NextHop(cur, pkt)
		if eject {
			if cur != dst {
				t.Fatalf("ejected at %d, want %d", cur, dst)
			}
			break
		}
		if hops >= bound {
			t.Fatalf("still at %d after %d hops (bound %d)", cur, hops, bound)
		}
		cur = b.Neighbor(cur, out)
	}
	if !visited {
		t.Errorf("route skipped its intermediate %d", inter)
	}
	// Unroutable pairs surface as errors.
	if _, _, err := b.PlanRoute(topo.Node(0, 0), topo.Node(1, 1), rng, nil); err == nil {
		t.Error("unroutable full->full pair accepted by PlanRoute")
	}
}
