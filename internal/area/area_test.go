package area

import (
	"math"
	"testing"

	"repro/internal/noc"
)

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.3f, want %.3f (±%.0f%%)", name, got, want, tol*100)
	}
}

// Table VI row 1: baseline 16B, 2VC, full routers.
func TestTableVIBaselineRouter(t *testing.T) {
	r := Router(FullRouter, 16, 2, 8, 1, 1)
	within(t, "crossbar", r.Crossbar, 1.73, 0.02)
	within(t, "buffer", r.Buffer, 0.17, 0.02)
	within(t, "allocator", r.Allocator, 0.004, 0.05)
	within(t, "router", r.Total(), 1.916, 0.03)
	within(t, "link", Link(16), 0.175, 0.02)
}

// Table VI row 2: 2x bandwidth (32B channels): crossbar grows 4x.
func TestTableVI2xBW(t *testing.T) {
	r := Router(FullRouter, 32, 2, 8, 1, 1)
	within(t, "crossbar", r.Crossbar, 6.95, 0.02)
	within(t, "buffer", r.Buffer, 0.34, 0.02)
	within(t, "router", r.Total(), 7.305, 0.03)
	within(t, "link", Link(32), 0.349, 0.02)
}

// Table VI row 3: CP-CR at 16B with 4 VCs: half-router crossbar 0.83,
// full-router 1.73 with buffers 0.34 and allocator 0.015.
func TestTableVICPCR(t *testing.T) {
	full := Router(FullRouter, 16, 4, 8, 1, 1)
	half := Router(HalfRouter, 16, 4, 8, 1, 1)
	within(t, "full crossbar", full.Crossbar, 1.73, 0.02)
	within(t, "full buffer", full.Buffer, 0.34, 0.02)
	within(t, "full allocator", full.Allocator, 0.015, 0.10)
	within(t, "full router", full.Total(), 2.10, 0.03)
	within(t, "half crossbar", half.Crossbar, 0.83, 0.02)
	within(t, "half router", half.Total(), 1.18, 0.03)
	// Half-router is roughly half the area of a full router (§IV-A "56%").
	ratio := half.Total() / full.Total()
	if ratio < 0.45 || ratio > 0.65 {
		t.Errorf("half/full router ratio = %.2f, want ~0.56", ratio)
	}
}

// Table VI row 4: double network at 8B, 2VC per slice.
func TestTableVIDouble(t *testing.T) {
	full := Router(FullRouter, 8, 2, 8, 1, 1)
	half := Router(HalfRouter, 8, 2, 8, 1, 1)
	within(t, "full crossbar", full.Crossbar, 0.43, 0.02)
	within(t, "full buffer", full.Buffer, 0.087, 0.03)
	within(t, "full router", full.Total(), 0.522, 0.03)
	within(t, "half crossbar", half.Crossbar, 0.20, 0.05)
	within(t, "half router", half.Total(), 0.30, 0.05)
	within(t, "link", Link(8), 0.087, 0.03)
}

// Table VI row 5: double network with 2 injection ports at MC routers.
func TestTableVIDouble2P(t *testing.T) {
	half2p := Router(HalfRouter, 8, 2, 8, 2, 1)
	within(t, "2P crossbar", half2p.Crossbar, 0.28, 0.03)
	within(t, "2P buffer", half2p.Buffer, 0.10, 0.05)
	within(t, "2P router", half2p.Total(), 0.395, 0.05)
}

// Ring stops expose only East/West, so their crossbar is 9/25 of a full
// mesh router's and their buffering covers 3 in-ports rather than 5.
func TestRingRouterArea(t *testing.T) {
	ringr := Router(RingRouter, 16, 4, 4, 1, 1)
	fullr := Router(FullRouter, 16, 4, 4, 1, 1)
	within(t, "ring crossbar", ringr.Crossbar, fullr.Crossbar*9/25, 0.001)
	within(t, "ring buffer", ringr.Buffer, fullr.Buffer*3/5, 0.001)
	if ringr.Total() >= fullr.Total() {
		t.Errorf("ring router (%.3f) not smaller than full router (%.3f)",
			ringr.Total(), fullr.Total())
	}
}

// FromConfig dispatches on the topology backend: a 36-node ring prices 36
// ring stops and 72 unidirectional channels.
func TestRingFromConfig(t *testing.T) {
	cfg := noc.DefaultConfig()
	cfg.Topology = noc.BackendRing
	cfg.NumVCs = 4
	cfg.BufDepth = 4
	a := FromConfig(cfg, false)
	r := Router(RingRouter, cfg.FlitBytes, cfg.NumVCs, cfg.BufDepth, 1, 1)
	within(t, "ring router sum", a.Routers, 36*r.Total(), 0.001)
	within(t, "ring link sum", a.Links, 72*Link(cfg.FlitBytes), 0.001)
	base := FromConfig(noc.DefaultConfig(), false)
	if a.NoC() >= base.NoC() {
		t.Errorf("ring NoC area %.2f not below mesh %.2f at equal width",
			a.NoC(), base.NoC())
	}
}

// The link sum prices every channel the mesh wires: 120 on 6x6, 8 on 2x2.
func TestMeshLinks(t *testing.T) {
	for _, tc := range []struct{ w, h, links int }{{6, 6, 120}, {2, 2, 8}} {
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height, cfg.MCs = tc.w, tc.h, nil
		got := FromConfig(cfg, false).Links / Link(cfg.FlitBytes)
		if math.Round(got) != float64(tc.links) {
			t.Errorf("%dx%d mesh links = %.3f, want %d", tc.w, tc.h, got, tc.links)
		}
	}
}

// Chip-level sums of Table VI.
func TestTableVINetworkSums(t *testing.T) {
	base := FromConfig(noc.DefaultConfig(), false)
	within(t, "baseline router sum", base.Routers, 69.0, 0.03)
	within(t, "baseline link sum", base.Links, 21.015, 0.02)
	within(t, "baseline chip", base.Chip(), 576, 0.01)

	bw2 := noc.DefaultConfig()
	bw2.FlitBytes = 32
	a2 := FromConfig(bw2, false)
	within(t, "2xBW router sum", a2.Routers, 263.0, 0.03)
	within(t, "2xBW chip", a2.Chip(), 790.9, 0.02)

	cpcr := noc.DefaultConfig()
	cpcr.Checkerboard = true
	cpcr.Routing = noc.RoutingCheckerboard
	cpcr.MCs = noc.CheckerboardPlacement(6, 6, 8)
	cpcr.NumVCs = 4
	acr := FromConfig(cpcr, false)
	within(t, "CP-CR router sum", acr.Routers, 59.2, 0.03)
	within(t, "CP-CR chip", acr.Chip(), 566.2, 0.01)

	dbl := cpcr
	dbl.NumVCs = 2
	ad := FromConfig(dbl, true)
	within(t, "double router sum", ad.Routers, 29.74, 0.05)
	within(t, "double chip", ad.Chip(), 536.74, 0.01)

	dbl2p := dbl
	dbl2p.MCInjPorts = 2
	ad2 := FromConfig(dbl2p, true)
	within(t, "double 2P router sum", ad2.Routers, 30.44, 0.05)
	within(t, "double 2P chip", ad2.Chip(), 537.44, 0.01)
}

// The headline: +17% IPC at the double-CP-CR-2P area over the baseline
// gives +25.4% IPC/mm² (§V-F).
func TestHeadlineAreaRatio(t *testing.T) {
	base := FromConfig(noc.DefaultConfig(), false)
	te := noc.DefaultConfig()
	te.Checkerboard = true
	te.Routing = noc.RoutingCheckerboard
	te.MCs = noc.CheckerboardPlacement(6, 6, 8)
	te.NumVCs = 2
	te.MCInjPorts = 2
	a := FromConfig(te, true)
	gain := ThroughputEffectiveness(1.17, a) / ThroughputEffectiveness(1.0, base)
	if gain < 1.24 || gain < 1.0 || gain > 1.27 {
		t.Errorf("throughput-effectiveness gain = %.3f, want ~1.254", gain)
	}
}

func TestCrosspointsPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown kind")
		}
	}()
	Crosspoints(RouterKind(9), 1, 1)
}
