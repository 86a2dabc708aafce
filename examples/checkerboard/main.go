// Checkerboard visualizes the checkerboard mesh (§IV) on a 6x6 layout:
// which tiles hold full routers, half-routers and memory controllers, and
// how the two-phase checkerboard routing algorithm steers packets that
// plain XY routing cannot deliver.
//
//	go run ./examples/checkerboard
package main

import (
	"fmt"
	"strings"

	"repro/internal/noc"
	"repro/internal/xrand"
)

func main() {
	cfg := noc.DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = noc.RoutingCheckerboard
	cfg.MCs = noc.CheckerboardPlacement(6, 6, 8)
	// The mesh backend is a *noc.Topology, which also names tiles by
	// coordinate.
	topo := noc.MustBuildBackend(cfg).(*noc.Topology)

	fmt.Println("6x6 checkerboard mesh (F=full router, h=half router, M=MC at half router):")
	for y := 0; y < 6; y++ {
		row := make([]string, 6)
		for x := 0; x < 6; x++ {
			n := topo.Node(x, y)
			switch {
			case topo.IsMC(n):
				row[x] = "M"
			case topo.IsHalf(n):
				row[x] = "h"
			default:
				row[x] = "F"
			}
		}
		fmt.Println("   " + strings.Join(row, " "))
	}
	fmt.Println()

	// Demonstrate the three routing situations of §IV-B.
	cases := []struct {
		what     string
		src, dst noc.NodeID
	}{
		{"plain XY (turn at a full router)", topo.Node(0, 0), topo.Node(2, 2)},
		{"case 1: full->half, odd columns away: YX", topo.Node(0, 0), topo.Node(1, 2)},
		{"case 2: half->half, even columns away: YX via intermediate", topo.Node(1, 0), topo.Node(3, 2)},
	}
	rng := xrand.New(42)
	for _, c := range cases {
		fmt.Printf("%s:\n", c.what)
		path := tracePath(topo, c.src, c.dst, rng)
		fmt.Printf("  %v\n\n", path)
	}
}

// tracePath walks a checkerboard route and renders each hop.
func tracePath(topo *noc.Topology, src, dst noc.NodeID, rng *xrand.Rand) string {
	yx, inter, err := topo.PlanRoute(src, dst, rng, nil)
	if err != nil {
		return "unroutable: " + err.Error()
	}
	pkt := &noc.Packet{Src: src, Dst: dst, YXPhase: yx, Intermediate: inter}
	var steps []string
	cur := src
	steps = append(steps, coord(topo, cur))
	for cur != dst {
		out, eject := topo.NextHop(cur, pkt)
		if eject {
			break
		}
		cur = topo.Neighbor(cur, out)
		steps = append(steps, fmt.Sprintf("-%v->%s", out, coord(topo, cur)))
	}
	return strings.Join(steps, " ")
}

func coord(topo *noc.Topology, n noc.NodeID) string {
	c := topo.Coord(n)
	kind := "F"
	if topo.IsHalf(n) {
		kind = "h"
	}
	if topo.IsMC(n) {
		kind = "M"
	}
	return fmt.Sprintf("(%d,%d)%s", c.X, c.Y, kind)
}
