package noc

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// deliveryCase is one Network under the delivery-list oracle, with the node
// roles its random traffic runs between.
type deliveryCase struct {
	name      string
	net       Network
	comp, mcs []NodeID
	nodes     int
}

func deliveryCases(t *testing.T) []deliveryCase {
	t.Helper()
	var cases []deliveryCase
	mesh := func(name string, cfg Config) {
		m := MustNewMesh(cfg)
		b := m.Backend()
		cases = append(cases, deliveryCase{name, m, b.ComputeNodes(), b.MCs(), b.NumNodes()})
	}
	backends := backendConfigs()
	mesh("mesh", backends["mesh"])
	cb := DefaultConfig()
	cb.Checkerboard = true
	cb.Routing = RoutingCheckerboard
	cb.NumVCs = 4
	cb.MCs = CheckerboardPlacement(6, 6, 8)
	mesh("checkerboard", cb)
	mesh("ring", backends["ring"])
	mesh("basejump", backends["basejump"])
	faulty := DefaultConfig()
	faulty.Fault = faulty.Fault.WithRate(0.002, 7)
	faulty.Fault.RetxTimeout = 512
	mesh("faults-on", faulty)

	double := func(name string, d *Double) {
		b := d.Subnet(ClassRequest).Backend()
		cases = append(cases, deliveryCase{name, d, b.ComputeNodes(), b.MCs(), b.NumNodes()})
	}
	double("double-dedicated", MustNewDouble(doubleConfig()))
	balanced := doubleConfig()
	balanced.NumVCs = 4
	double("double-balanced", MustNewDoubleBalanced(balanced))

	roles := MustNewMesh(DefaultConfig()).Backend()
	for _, c := range []struct {
		name string
		cap  float64
	}{{"ideal-uncapped", 0}, {"ideal-capped", 2}} {
		cases = append(cases, deliveryCase{c.name, MustNewIdeal(roles.NumNodes(), 16, c.cap),
			roles.ComputeNodes(), roles.MCs(), roles.NumNodes()})
	}
	return cases
}

// TestDeliveredMatchesEjections is the oracle for the delivery list. Random
// request/reply traffic runs while the consumer drains on a random half of
// the cycles, then on none until the network goes quiet. Every injected
// packet must come out of Delivered exactly once, at its Dst; each node's
// packets must come in non-decreasing ArrivedAt order; a Double batch must
// list each cycle's packets from slice 0 before those from slice 1; and a
// drain must leave the list empty. On fault-free networks every ejected
// flit must belong to a delivered packet at the node that ejected it.
func TestDeliveredMatchesEjections(t *testing.T) {
	for _, tc := range deliveryCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			rng := xrand.New(17)
			var dsts []NodeID // by tag: the packet's destination at injection
			inject := func(total int) {
				if len(dsts) >= total {
					return
				}
				p := &Packet{Line: uint64(len(dsts))} // the tag survives retransmission clones
				if len(dsts)%2 == 0 {
					p.Src, p.Dst, p.Class, p.Bytes = tc.comp[rng.Intn(len(tc.comp))], tc.mcs[rng.Intn(len(tc.mcs))], ClassRequest, 8
				} else {
					p.Src, p.Dst, p.Class, p.Bytes = tc.mcs[rng.Intn(len(tc.mcs))], tc.comp[rng.Intn(len(tc.comp))], ClassReply, 64
				}
				if net.TryInject(p) {
					dsts = append(dsts, p.Dst)
				}
			}

			seen := map[uint64]bool{}
			lastAt := make([]uint64, tc.nodes)
			ejected := make([]uint64, tc.nodes) // flits of the delivered packets, by Dst
			drain := func(cycle int) {
				var want []*Packet
				if d, ok := net.(*Double); ok {
					want = append(slices.Clone(d.nets[0].deliv), d.nets[1].deliv...)
					slices.SortStableFunc(want, func(x, y *Packet) int { return cmp.Compare(x.ArrivedAt, y.ArrivedAt) })
				}
				batch := net.Delivered()
				if want != nil && !slices.Equal(batch, want) {
					t.Fatalf("cycle %d: Double batch is not in cycle order with slice 0's packets first", cycle)
				}
				for _, p := range batch {
					if p.Line >= uint64(len(dsts)) || seen[p.Line] {
						t.Fatalf("cycle %d: packet tag %d delivered twice or never injected", cycle, p.Line)
					}
					seen[p.Line] = true
					if p.Dst != dsts[p.Line] {
						t.Fatalf("cycle %d: packet %d delivered at %d, sent to %d", cycle, p.Line, p.Dst, dsts[p.Line])
					}
					if p.ArrivedAt < lastAt[p.Dst] {
						t.Fatalf("cycle %d node %d: packet arrived at %d after one that arrived at %d",
							cycle, p.Dst, p.ArrivedAt, lastAt[p.Dst])
					}
					lastAt[p.Dst] = p.ArrivedAt
					ejected[p.Dst] += uint64(p.flits)
				}
				if again := net.Delivered(); len(again) != 0 {
					t.Fatalf("cycle %d: %d packets left after a drain", cycle, len(again))
				}
			}

			// Phase 1: drain on a random half of the cycles, so a batch may
			// hold several cycles' ejections.
			const phase1 = 1200
			for cycle := 0; len(seen) < phase1; cycle++ {
				if cycle > 200000 {
					t.Fatalf("delivered %d/%d packets", len(seen), phase1)
				}
				inject(phase1)
				inject(phase1)
				net.Tick()
				if rng.Intn(2) == 0 {
					drain(cycle)
				}
			}

			// Phase 2: nothing drains until the network goes quiet; the one
			// batch then holds every packet since the last drain.
			const phase2 = phase1 + 400
			cycle := 0
			for ; len(dsts) < phase2 || !net.Quiet(); cycle++ {
				if cycle > 200000 {
					t.Fatal("undrained phase did not go quiet")
				}
				inject(phase2)
				net.Tick()
			}
			drain(cycle)
			if len(seen) != len(dsts) {
				t.Fatalf("delivered %d packets, injected %d", len(seen), len(dsts))
			}
			if tc.name == "faults-on" {
				return // retransmitted and dropped copies eject flits too
			}
			if st := net.Stats(); !slices.Equal(st.EjectedFlits, ejected) {
				t.Fatalf("ejected flits by node %v, delivered packets' flits by Dst %v", st.EjectedFlits, ejected)
			}
		})
	}
}
