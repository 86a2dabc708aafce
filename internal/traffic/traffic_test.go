package traffic

import (
	"testing"

	"repro/internal/noc"
)

func testRunner() *Runner {
	return NewMeshRunner(noc.DefaultConfig())
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 1500
	cfg.DrainCycles = 4000
	return cfg
}

func TestLowLoadLatencyNearZeroLoad(t *testing.T) {
	cfg := quickConfig()
	cfg.InjectionRate = 0.002
	res := testRunner().Run(cfg)
	if res.MeasuredPackets == 0 {
		t.Fatal("no packets measured")
	}
	// Zero-load request latency is ~20-30 cycles on a 6x6 mesh with
	// 4-stage routers; at trivial load the average must stay low.
	if res.AvgLatency > 45 {
		t.Errorf("low-load latency = %v, want < 45", res.AvgLatency)
	}
	if res.Saturated {
		t.Error("trivial load reported as saturated")
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	r := testRunner()
	lo := quickConfig()
	lo.InjectionRate = 0.005
	hi := quickConfig()
	hi.InjectionRate = 0.05
	resLo := r.Run(lo)
	resHi := r.Run(hi)
	if resHi.AvgLatency <= resLo.AvgLatency {
		t.Errorf("latency did not grow with load: %.1f @0.005 vs %.1f @0.05",
			resLo.AvgLatency, resHi.AvgLatency)
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := quickConfig()
	cfg.InjectionRate = 0.30 // far beyond any mesh capacity here
	res := testRunner().Run(cfg)
	if !res.Saturated {
		t.Error("extreme load not reported as saturated")
	}
	if res.ReplyInjectRate <= 0 {
		t.Error("no replies injected at saturation")
	}
}

func TestAcceptedTracksOfferedBelowSaturation(t *testing.T) {
	cfg := quickConfig()
	cfg.InjectionRate = 0.01
	res := testRunner().Run(cfg)
	// Accepted load (all nodes, incl. replies) must exceed the request-only
	// offered load but stay in the same regime.
	if res.AcceptedLoad <= 0 {
		t.Fatal("no accepted traffic")
	}
	if res.Saturated {
		t.Error("low load saturated")
	}
}

func TestHotspotSaturatesEarlier(t *testing.T) {
	// At a load where the uniform pattern is comfortably below saturation,
	// concentrating 20% of requests on one MC pushes that MC's reply path
	// over the edge: latency rises and fewer replies get through.
	r := testRunner()
	uni := quickConfig()
	uni.InjectionRate = 0.03
	hot := uni
	hot.Pattern = Hotspot
	uniRes := r.Run(uni)
	hotRes := r.Run(hot)
	if hotRes.AvgLatency <= uniRes.AvgLatency {
		t.Errorf("hotspot latency %.1f not above uniform %.1f",
			hotRes.AvgLatency, uniRes.AvgLatency)
	}
}

func TestCheckerboard2PSaturatesLater(t *testing.T) {
	// The paper's Fig 21 ordering: CP-CR-2P sustains more load than TB-DOR.
	tb := noc.DefaultConfig()
	cpcr2p := tb
	cpcr2p.Checkerboard = true
	cpcr2p.Routing = noc.RoutingCheckerboard
	cpcr2p.MCs = noc.CheckerboardPlacement(6, 6, 8)
	cpcr2p.NumVCs = 4
	cpcr2p.MCInjPorts = 2
	cfg := quickConfig()
	cfg.InjectionRate = 0.30
	tbRes := NewMeshRunner(tb).Run(cfg)
	teRes := NewMeshRunner(cpcr2p).Run(cfg)
	if teRes.ReplyInjectRate <= tbRes.ReplyInjectRate {
		t.Errorf("CP-CR-2P reply throughput %.3f not above TB-DOR %.3f",
			teRes.ReplyInjectRate, tbRes.ReplyInjectRate)
	}
}

func TestSweepOrdering(t *testing.T) {
	r := testRunner()
	var results []Result
	for _, rate := range []float64{0.005, 0.02} {
		cfg := quickConfig()
		cfg.InjectionRate = rate
		results = append(results, r.Run(cfg))
	}
	if results[0].OfferedLoad != 0.005 || results[1].OfferedLoad != 0.02 {
		t.Error("sweep results out of order")
	}
}

func TestDeterministicRuns(t *testing.T) {
	r := testRunner()
	cfg := quickConfig()
	cfg.InjectionRate = 0.02
	a := r.Run(cfg)
	b := r.Run(cfg)
	if a.AvgLatency != b.AvgLatency || a.MeasuredPackets != b.MeasuredPackets {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestPatternString(t *testing.T) {
	if UniformRandom.String() != "uniform" || Hotspot.String() != "hotspot" {
		t.Error("pattern names wrong")
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	cfg := quickConfig()
	cfg.InjectionRate = 0.03
	res := testRunner().Run(cfg)
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Errorf("percentiles inconsistent: p50=%v p99=%v", res.P50Latency, res.P99Latency)
	}
	if res.AvgLatency < res.P50Latency/4 || res.AvgLatency > res.P99Latency*2 {
		t.Errorf("mean %v far outside [p50=%v, p99=%v]", res.AvgLatency, res.P50Latency, res.P99Latency)
	}
}

// TestHotspotSingleMC is the regression for the hotspot pattern on a network
// with exactly one memory controller: there are no "remaining controllers"
// to spread the cold share over, so every request goes to the one MC (the
// draw used to panic in Intn(0)).
func TestHotspotSingleMC(t *testing.T) {
	ncfg := noc.DefaultConfig()
	ncfg.MCs = ncfg.MCs[:1]
	cfg := quickConfig()
	cfg.Pattern = Hotspot
	cfg.InjectionRate = 0.005
	res := NewMeshRunner(ncfg).Run(cfg)
	if res.MeasuredPackets == 0 {
		t.Fatal("no packets measured")
	}
	cfg.Pattern = UniformRandom
	if uni := NewMeshRunner(ncfg).Run(cfg); uni != res {
		t.Errorf("with one MC hotspot and uniform traffic must coincide:\n hotspot %+v\n uniform %+v", res, uni)
	}
}

// noMCBackend hides a backend's memory controllers.
type noMCBackend struct{ noc.Backend }

func (noMCBackend) MCs() []noc.NodeID { return nil }

// TestNoMCNetworkPanicsClearly pins the message for a network the open-loop
// driver cannot use at all.
func TestNoMCNetworkPanicsClearly(t *testing.T) {
	r := NewRunner(func() (noc.Network, noc.Backend) {
		m := noc.MustNewMesh(noc.DefaultConfig())
		return m, noMCBackend{m.Backend()}
	})
	defer func() {
		if got, want := recover(), "traffic: network has no MC nodes"; got != want {
			t.Errorf("panic = %v, want %q", got, want)
		}
	}()
	r.Run(quickConfig())
}

// TestComputeNodesAreAscendingNonMCs pins what Run's delivery walk
// relies on: on every backend of the open-loop matrix, ComputeNodes lists
// exactly the non-MC nodes in ascending id order, so walking the delivered
// set's non-MC bits lowest first visits compute nodes in ComputeNodes order.
func TestComputeNodesAreAscendingNonMCs(t *testing.T) {
	for _, og := range openMatrix() {
		cfg := og.mesh()
		b := noc.MustBuildBackend(cfg)
		isMC := make(map[noc.NodeID]bool)
		for _, mc := range b.MCs() {
			isMC[mc] = true
		}
		var want []noc.NodeID
		for n := 0; n < b.NumNodes(); n++ {
			if !isMC[noc.NodeID(n)] {
				want = append(want, noc.NodeID(n))
			}
		}
		got := b.ComputeNodes()
		if len(got) != len(want) {
			t.Fatalf("%s (%s): %d compute nodes, want the %d non-MC nodes", og.id, cfg.Topology, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (%s): compute node %d is %d, want %d", og.id, cfg.Topology, i, got[i], want[i])
			}
		}
	}
}

// offerLog decorates a noc.Network and records, for every request packet
// the network accepts, the cycle it was offered in.
type offerLog struct {
	noc.Network
	offered []uint64
}

func (o *offerLog) TryInject(p *noc.Packet) bool {
	at := o.Cycle()
	ok := o.Network.TryInject(p)
	if ok && p.Class == noc.ClassRequest {
		o.offered = append(o.offered, at)
	}
	return ok
}

// TestMeasuredWindow pins which packets a run measures: the round trips of
// the requests offered in [WarmupCycles, WarmupCycles+MeasureCycles). The
// drain is long enough at this load for every reply to arrive, so
// MeasuredPackets counts exactly those requests. The seed is one at which
// requests are offered on the cycle before the window and on its last
// cycle, so an off-by-one at either edge changes the count.
func TestMeasuredWindow(t *testing.T) {
	var log *offerLog
	r := NewRunner(func() (noc.Network, noc.Backend) {
		m := noc.MustNewMesh(noc.DefaultConfig())
		log = &offerLog{Network: m}
		return log, m.Backend()
	})
	cfg := quickConfig()
	cfg.InjectionRate = 0.02
	res := r.Run(cfg)
	if res.Saturated {
		t.Fatal("low load saturated")
	}
	start, end := uint64(cfg.WarmupCycles), uint64(cfg.WarmupCycles+cfg.MeasureCycles)
	count := func(from, to uint64) int {
		n := 0
		for _, at := range log.offered {
			if at >= from && at < to {
				n++
			}
		}
		return n
	}
	if count(start-1, start) == 0 || count(end-1, end) == 0 {
		t.Fatalf("no request offered at cycle %d or %d: the edges go untested", start-1, end-1)
	}
	if late := count(end, ^uint64(0)); late != 0 {
		t.Fatalf("%d requests offered at or after the window's end %d", late, end)
	}
	if want := count(start, end); res.MeasuredPackets != want {
		t.Errorf("MeasuredPackets = %d, want the %d requests offered in [%d, %d) (%d with cycle %d, %d without cycle %d)",
			res.MeasuredPackets, want, start, end, count(start-1, end), start-1, count(start, end-1), end-1)
	}
}
