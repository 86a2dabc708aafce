package noc

import (
	"testing"

	"repro/internal/xrand"
)

// deliveredSetCase is one Network under the delivered-set oracle, with the
// node roles its random traffic runs between.
type deliveredSetCase struct {
	name      string
	net       Network
	comp, mcs []NodeID
	nodes     int
}

func deliveredSetCases(t *testing.T) []deliveredSetCase {
	t.Helper()
	var cases []deliveredSetCase
	mesh := func(name string, cfg Config) {
		m := MustNewMesh(cfg)
		b := m.Backend()
		cases = append(cases, deliveredSetCase{name, m, b.ComputeNodes(), b.MCs(), b.NumNodes()})
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
		cases = append(cases, deliveredSetCase{name, d, b.ComputeNodes(), b.MCs(), b.NumNodes()})
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
		cases = append(cases, deliveredSetCase{c.name, MustNewIdeal(roles.NumNodes(), 16, c.cap),
			roles.ComputeNodes(), roles.MCs(), roles.NumNodes()})
	}
	return cases
}

// TestDeliveredSetMatchesBatches is the oracle for the push-style delivery
// set: after every Tick, and again after draining a random subset of nodes,
// the set DeliveredSet reports must be exactly the nodes whose Delivered
// batch is non-empty. It then drives the network as a poll-only consumer
// (every node drained by Delivered, the set never read) and as one that
// never drains at all, and requires the set to stay a node-sized bitset
// holding exactly the undrained nodes.
func TestDeliveredSetMatchesBatches(t *testing.T) {
	for _, tc := range deliveredSetCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			rng := xrand.New(17)
			words := (tc.nodes + 63) / 64
			read := func() []uint64 {
				s := make([]uint64, words) // exactly node-sized: the set never outgrows it
				net.DeliveredSet(s)
				return s
			}
			has := func(s []uint64, n int) bool { return s[n>>6]&(1<<(uint(n)&63)) != 0 }
			sent, recv := 0, 0
			inject := func(total int) {
				if sent >= total {
					return
				}
				var p *Packet
				if sent%2 == 0 {
					p = &Packet{Src: tc.comp[rng.Intn(len(tc.comp))], Dst: tc.mcs[rng.Intn(len(tc.mcs))],
						Class: ClassRequest, Bytes: 8}
				} else {
					p = &Packet{Src: tc.mcs[rng.Intn(len(tc.mcs))], Dst: tc.comp[rng.Intn(len(tc.comp))],
						Class: ClassReply, Bytes: 64}
				}
				if net.TryInject(p) {
					sent++
				}
			}

			// Phase 1: the set against the batches, with random partial drains.
			const phase1 = 1200
			drained := make([]bool, tc.nodes)
			for cycle := 0; recv < phase1; cycle++ {
				if cycle > 200000 {
					t.Fatalf("delivered %d/%d packets", recv, phase1)
				}
				inject(phase1)
				inject(phase1)
				net.Tick()
				before := read()
				for n := range drained {
					drained[n] = rng.Intn(2) == 0
					if !drained[n] {
						continue
					}
					batch := net.Delivered(NodeID(n))
					if (len(batch) > 0) != has(before, n) {
						t.Fatalf("cycle %d node %d: set bit %v but batch holds %d packets",
							cycle, n, has(before, n), len(batch))
					}
					recv += len(batch)
				}
				after := read()
				for n := range drained {
					if want := has(before, n) && !drained[n]; has(after, n) != want {
						t.Fatalf("cycle %d node %d: set bit %v after draining a subset, want %v",
							cycle, n, has(after, n), want)
					}
				}
			}

			// Phase 2: a poll-only consumer drains every node, never reading
			// the set; it must come back empty.
			const phase2 = phase1 + 400
			for cycle := 0; recv < phase2; cycle++ {
				if cycle > 200000 {
					t.Fatalf("poll-only phase delivered %d/%d packets", recv, phase2)
				}
				inject(phase2)
				net.Tick()
				recv += len(collectAll(net, tc.nodes))
			}
			for i, w := range read() {
				if w != 0 {
					t.Fatalf("poll-only consumer left set word %d = %#x", i, w)
				}
			}

			// Phase 3: nothing drains. The set stays node-sized and flags
			// exactly the nodes holding the piled-up batches.
			const phase3 = phase2 + 200
			for cycle := 0; sent < phase3 || !net.Quiet(); cycle++ {
				if cycle > 200000 {
					t.Fatal("undrained phase did not go quiet")
				}
				inject(phase3)
				net.Tick()
			}
			set := read()
			for n := 0; n < tc.nodes; n++ {
				batch := net.Delivered(NodeID(n))
				if (len(batch) > 0) != has(set, n) {
					t.Fatalf("node %d: set bit %v but %d undrained packets", n, has(set, n), len(batch))
				}
				recv += len(batch)
			}
			if recv != phase3 {
				t.Fatalf("received %d packets, sent %d", recv, phase3)
			}
		})
	}
}
