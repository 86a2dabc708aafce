package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestAllPairsRoutesBounded walks every planned route of every backend and
// routing algorithm that core.DesignPoints builds, all source/destination
// pairs with 16 planner draws each, and holds it to FuzzPlanRoute's bound:
// HopCount(src, dst) switch hops for a direct route, the sum over both legs
// for a two-phase one. Retransmissions re-plan through the same PlanRoute,
// so no packet can wander: this static bound is why the network has no
// runtime hop budget or livelock verdict. Every compute node/MC pair, the
// only pairs the closed loop sends between, must plan.
func TestAllPairsRoutesBounded(t *testing.T) {
	const draws = 16
	seen := map[noc.Backend]bool{}
	for _, dp := range core.DesignPoints() {
		cfg := dp.Build(workload.Profile{})
		if cfg.Net == core.NetPerfect || cfg.Net == core.NetIdealCapped {
			continue
		}
		b, err := noc.BuildBackend(cfg.Noc)
		if err != nil {
			t.Fatalf("%s: %v", dp.Name, err)
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		rng := xrand.New(1)
		scratch := make([]noc.NodeID, 0, b.NumNodes())
		longest := 0
		for s := noc.NodeID(0); int(s) < b.NumNodes(); s++ {
			for d := noc.NodeID(0); int(d) < b.NumNodes(); d++ {
				for i := 0; i < draws; i++ {
					yx, inter, err := b.PlanRoute(s, d, rng, scratch)
					if err != nil {
						if b.IsMC(s) != b.IsMC(d) {
							t.Fatalf("%s: MC route %d->%d refused: %v", dp.Name, s, d, err)
						}
						continue
					}
					bound := b.HopCount(s, d)
					if inter >= 0 {
						bound = b.HopCount(s, inter) + b.HopCount(inter, d)
					}
					p := &noc.Packet{Src: s, Dst: d, YXPhase: yx, Intermediate: inter}
					hops := walkRoute(t, dp.Name, b, p, bound)
					longest = max(longest, hops+1) // the ejection is a switch traversal too
				}
			}
		}
		t.Logf("%s (%v): longest route %d switch traversals", dp.Name, cfg.Noc.Topology, longest)
	}
}

// walkRoute follows p's route by NextHop from its source and returns the
// hops it took to eject at its destination, failing past bound hops.
func walkRoute(t *testing.T, name string, b noc.Backend, p *noc.Packet, bound int) int {
	t.Helper()
	cur := p.Src
	for hops := 0; hops <= bound; hops++ {
		out, eject := b.NextHop(cur, p)
		if eject {
			if cur != p.Dst {
				t.Fatalf("%s: route %d->%d ejected at %d", name, p.Src, p.Dst, cur)
			}
			return hops
		}
		if out < noc.North || out > noc.West {
			t.Fatalf("%s: NextHop at %d returned non-direction port %v", name, cur, out)
		}
		if cur = b.Neighbor(cur, out); cur < 0 {
			t.Fatalf("%s: route %d->%d leaves through an unwired port", name, p.Src, p.Dst)
		}
	}
	t.Fatalf("%s: route %d->%d (inter %d) exceeds its bound of %d hops", name, p.Src, p.Dst, p.Intermediate, bound)
	return 0
}
