package noc

import (
	"testing"

	"repro/internal/xrand"
)

// doubleConfig is the Fig 18 configuration: checkerboard placement and
// routing, 16B single-network equivalent (8B slices), 2 VCs per slice.
func doubleConfig() Config {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	cfg.NumVCs = 2
	return cfg
}

func TestDoubleValidation(t *testing.T) {
	cfg := doubleConfig()
	cfg.FlitBytes = 15
	if _, err := NewDouble(cfg); err == nil {
		t.Error("odd channel width accepted for slicing")
	}
}

func TestDoubleSlicesHalfWidth(t *testing.T) {
	d := MustNewDouble(doubleConfig())
	if got := d.Subnet(ClassRequest).FlitBytes(); got != 8 {
		t.Errorf("request slice flit size = %d, want 8", got)
	}
	if got := d.Subnet(ClassReply).FlitBytes(); got != 8 {
		t.Errorf("reply slice flit size = %d, want 8", got)
	}
}

func TestDoubleClassSeparation(t *testing.T) {
	d := MustNewDouble(doubleConfig())
	req := &Packet{Src: 0, Dst: 1, Class: ClassRequest, Bytes: 8}
	rep := &Packet{Src: 1, Dst: 0, Class: ClassReply, Bytes: 64}
	d.TryInject(req)
	d.TryInject(rep)
	runUntilQuiet(t, d, 1000)
	// Each subnet must have carried exactly its class.
	reqStats := d.Subnet(ClassRequest).Stats()
	repStats := d.Subnet(ClassReply).Stats()
	if reqStats.InjectedPackets[0] != 1 || repStats.InjectedPackets[1] != 1 {
		t.Errorf("classes not separated: req net %v, reply net %v",
			reqStats.InjectedPackets[0], repStats.InjectedPackets[1])
	}
	if got := d.Delivered(); len(got) != 2 || got[0] != req || got[1] != rep {
		t.Errorf("delivered %v, want the request (slice 0) then the reply", got)
	}
}

func TestDoubleSerializationLatency(t *testing.T) {
	// A 64-byte reply is 8 flits on an 8B slice vs 4 on the 16B single
	// network: tail latency grows by the extra serialization.
	singleCfg := doubleConfig()
	singleCfg.NumVCs = 4 // single network needs class x phase VCs
	single := MustNewMesh(singleCfg)
	d := MustNewDouble(doubleConfig())
	ps := &Packet{Src: 1, Dst: 30, Class: ClassReply, Bytes: 64}
	pd := &Packet{Src: 1, Dst: 30, Class: ClassReply, Bytes: 64}
	single.TryInject(ps)
	d.TryInject(pd)
	runUntilQuiet(t, single, 1000)
	runUntilQuiet(t, d, 1000)
	if pd.NetworkLatency() != ps.NetworkLatency()+4 {
		t.Errorf("sliced latency = %d, single = %d; want +4 serialization",
			pd.NetworkLatency(), ps.NetworkLatency())
	}
}

func TestDoubleHeavyTrafficDrains(t *testing.T) {
	d := MustNewDouble(doubleConfig())
	topo := d.Subnet(ClassRequest).Topology()
	rng := xrand.New(21)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	sent, recv := 0, 0
	const total = 2000
	for cycle := 0; cycle < 200000 && recv < total; cycle++ {
		if sent < total {
			var p *Packet
			if sent%2 == 0 {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			} else {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			}
			if d.TryInject(p) {
				sent++
			}
		}
		d.Tick()
		recv += len(d.Delivered())
	}
	if recv != total {
		t.Fatalf("delivered %d/%d", recv, total)
	}
	merged := d.Stats()
	if merged.NetLatency.N() != total {
		t.Errorf("merged latency samples = %d, want %d", merged.NetLatency.N(), total)
	}
}

func TestDoubleCycleLockstep(t *testing.T) {
	d := MustNewDouble(doubleConfig())
	for i := 0; i < 17; i++ {
		d.Tick()
	}
	if d.Cycle() != 17 {
		t.Errorf("cycle = %d, want 17", d.Cycle())
	}
	if d.Subnet(ClassRequest).Cycle() != d.Subnet(ClassReply).Cycle() {
		t.Error("slices out of lockstep")
	}
}

func TestBalancedDoubleDelivers(t *testing.T) {
	cfg := doubleConfig()
	cfg.NumVCs = 4 // balanced slices need class x phase VCs
	d, err := NewDoubleBalanced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := d.Subnet(ClassRequest).Topology()
	rng := xrand.New(61)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	sent, recv := 0, 0
	const total = 800
	for cycle := 0; cycle < 100000 && recv < total; cycle++ {
		if sent < total {
			var p *Packet
			if sent%2 == 0 {
				p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
					Class: ClassRequest, Bytes: 8}
			} else {
				p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64}
			}
			if d.TryInject(p) {
				sent++
			}
		}
		d.Tick()
		recv += len(d.Delivered())
	}
	if recv != total {
		t.Fatalf("balanced double delivered %d/%d", recv, total)
	}
	// Both slices must have carried traffic of both kinds.
	for i := 0; i < 2; i++ {
		st := d.nets[i].Stats()
		var pkts uint64
		for _, n := range st.InjectedPackets {
			pkts += n
		}
		if pkts < total/4 {
			t.Errorf("slice %d carried only %d packets: not balanced", i, pkts)
		}
	}
}

func TestBalancedDoubleNeedsProtocolVCs(t *testing.T) {
	cfg := doubleConfig() // 2 VCs: too few for class x phase per slice
	if _, err := NewDoubleBalanced(cfg); err == nil {
		t.Error("balanced double accepted without protocol VCs")
	}
}

func TestBalancedBeatsDedicatedOnReplyHeavyTraffic(t *testing.T) {
	// With reply-dominated traffic, spreading replies over both slices uses
	// wires the dedicated split reserves for (nearly idle) requests.
	run := func(d *Double) int {
		topo := d.Subnet(ClassRequest).Topology()
		rng := xrand.New(62)
		comp := topo.ComputeNodes()
		mcs := topo.MCs()
		recv := 0
		for cycle := 0; cycle < 6000; cycle++ {
			for k := 0; k < 2; k++ {
				d.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
					Class: ClassReply, Bytes: 64})
			}
			d.Tick()
			recv += len(d.Delivered())
		}
		return recv
	}
	balCfg := doubleConfig()
	balCfg.NumVCs = 4
	dedicated := run(MustNewDouble(doubleConfig()))
	balanced := run(MustNewDoubleBalanced(balCfg))
	if balanced <= dedicated {
		t.Errorf("balanced (%d) not above dedicated (%d) on reply-heavy traffic",
			balanced, dedicated)
	}
}
