package noc

import (
	"testing"

	"repro/internal/xrand"
)

// fuzzRouteConfig decodes the fuzzer's raw selectors into a buildable
// geometry/routing configuration. kind picks the backend (and, for the
// mesh, the routing algorithm); w/h bound the dims to 2..9; mcSel places
// a strided MC set. Decoding never fails — invalid combinations are left
// for BuildBackend to reject, which is itself part of the surface under
// test (it must reject, not panic).
func fuzzRouteConfig(kind, w, h, mcSel uint8) Config {
	cfg := DefaultConfig()
	cfg.Width = 2 + int(w%8)
	cfg.Height = 2 + int(h%8)
	n := cfg.Width * cfg.Height
	stride := 2 + int(mcSel%5)
	cfg.MCs = cfg.MCs[:0]
	for id := int(mcSel % 3); id < n; id += stride {
		cfg.MCs = append(cfg.MCs, NodeID(id))
	}
	switch kind % 5 {
	case 0:
		// mesh, DOR
	case 1:
		cfg.Checkerboard = true
		cfg.Routing = RoutingCheckerboard
		cfg.MCs = CheckerboardPlacement(cfg.Width, cfg.Height, 1+int(mcSel%8))
	case 2:
		cfg.Routing = RoutingROMM
	case 3:
		cfg.Topology = BackendRing
	case 4:
		cfg.Topology = BackendBaseJump
	}
	return cfg
}

// FuzzPlanRoute drives every backend's route planner and per-hop dispatch
// on fuzzer-chosen geometry, MC placement, endpoints and RNG seed. For any
// (src, dst) a planned route must walk NextHop to an ejection exactly at
// dst, never leave through a port the backend wires no channel on, and
// never exceed the minimal hop bound — HopCount(src, dst) for direct
// routes, the sum over both legs for two-phase routes through an
// intermediate (CR case 2, ROMM).
func FuzzPlanRoute(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), uint8(0), uint8(3), uint8(30), uint64(1))
	f.Add(uint8(1), uint8(4), uint8(4), uint8(6), uint8(0), uint8(35), uint64(7))
	f.Add(uint8(2), uint8(2), uint8(5), uint8(9), uint8(11), uint8(2), uint64(42))
	f.Add(uint8(3), uint8(4), uint8(0), uint8(2), uint8(5), uint8(17), uint64(3))
	f.Add(uint8(4), uint8(6), uint8(6), uint8(12), uint8(63), uint8(1), uint64(9))
	f.Fuzz(func(t *testing.T, kind, w, h, mcSel, src, dst uint8, seed uint64) {
		cfg := fuzzRouteConfig(kind, w, h, mcSel)
		backend, err := BuildBackend(cfg)
		if err != nil {
			return // rejection is a valid verdict; it just must not panic
		}
		n := backend.NumNodes()
		s := NodeID(int(src) % n)
		d := NodeID(int(dst) % n)
		rng := xrand.New(seed | 1)
		yx, inter, err := backend.PlanRoute(s, d, rng, make([]NodeID, 0, n))
		if err != nil {
			// Planners may reject unroutable pairs (checkerboard routing has
			// no path between full-router pairs at odd offsets); rejection
			// must be an error, never a panic or a wandering route.
			return
		}
		bound := backend.HopCount(s, d)
		if inter >= 0 {
			bound = backend.HopCount(s, inter) + backend.HopCount(inter, d)
		}
		p := &Packet{Src: s, Dst: d, Class: ClassRequest, Bytes: 8,
			YXPhase: yx, Intermediate: inter}
		cur := s
		for hops := 0; ; hops++ {
			if hops > bound {
				t.Fatalf("%s: route %d->%d (inter %d) still at node %d after %d hops (bound %d)",
					cfg.Topology, s, d, inter, cur, hops, bound)
			}
			out, eject := backend.NextHop(cur, p)
			if eject {
				if cur != d {
					t.Fatalf("%s: route %d->%d ejected at %d", cfg.Topology, s, d, cur)
				}
				return
			}
			if out >= numDirs {
				t.Fatalf("%s: NextHop at %d returned non-direction port %d",
					cfg.Topology, cur, out)
			}
			next := backend.Neighbor(cur, out)
			if next < 0 {
				t.Fatalf("%s: NextHop at %d left via %v where the backend wires no channel",
					cfg.Topology, cur, out)
			}
			cur = next
		}
	})
}
