package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/traffic"
)

// openLoop is the open-loop workload: traffic.Runner.Run at fixed offered
// loads on four networks (three backends), from near idle, where the drain
// phase is skipped, to past saturation.
type openLoop struct {
	nets   []openNet
	points []openPoint
}

type openNet struct {
	name string
	cfg  noc.Config
}

type openLoad struct {
	pattern traffic.Pattern
	rate    float64
}

type openPoint struct {
	net int
	cfg traffic.Config
}

// openLoads are the operating points every network is measured at: four of
// the twelve Fig 21 rates, from near idle (the drain phase is skipped) over
// both sides of the mesh knee to past saturation, split over the two
// patterns.
var openLoads = []openLoad{
	{traffic.UniformRandom, 0.005},
	{traffic.UniformRandom, 0.08},
	{traffic.Hotspot, 0.04},
	{traffic.Hotspot, 0.12},
}

func openNetworks() []openNet {
	tb := noc.DefaultConfig()
	// CP-CR-2P as experiments/openloop.go builds it.
	cpcr2p := tb
	cpcr2p.MCs = noc.CheckerboardPlacement(6, 6, 8)
	cpcr2p.Checkerboard = true
	cpcr2p.Routing = noc.RoutingCheckerboard
	cpcr2p.NumVCs = 4
	cpcr2p.MCInjPorts = 2
	p := mustProfile("MUM") // the profile does not reach the Noc config
	return []openNet{
		{"TB-DOR", tb},
		{"CP-CR-2P", cpcr2p},
		{"Ring", core.Ring(p).Noc},
		{"BaseJump", core.BaseJump(p).Noc},
	}
}

func newOpenLoadLat(e *env) *openLoop {
	w := &openLoop{nets: openNetworks()}
	loads := openLoads
	base := traffic.DefaultConfig() // keeps the harness's 2000-cycle warm-up
	base.MeasureCycles = 3000
	base.DrainCycles = 8000
	if e.small {
		loads = []openLoad{openLoads[0], openLoads[3]}
		w.nets = w.nets[2:3] // ring: saturates at the high rate
		base.MeasureCycles = 1000
		base.DrainCycles = 2500
	}
	base.Seed = e.seed
	for n := range w.nets {
		for _, l := range loads {
			cfg := base
			cfg.Pattern = l.pattern
			cfg.InjectionRate = l.rate
			w.points = append(w.points, openPoint{net: n, cfg: cfg})
		}
	}
	return w
}

func (w *openLoop) setup(e *env) error {
	for _, pt := range w.points { // a pass builds one network per point
		if _, err := noc.NewMesh(w.nets[pt.net].cfg); err != nil {
			return fmt.Errorf("%s: %w", w.nets[pt.net].name, err)
		}
	}
	return nil
}

// runPoint measures one point through the traffic.NewRunner build seam. The
// build func keeps the network it hands out so the point's NetStats can be
// read afterwards; on a traced pass it hands out the timing decorator.
func (w *openLoop) runPoint(e *env, pt openPoint) (traffic.Result, *noc.NetStats) {
	var net noc.Network
	var timed *timedNet
	r := traffic.NewRunner(func() (noc.Network, noc.Backend) {
		m := noc.MustNewMesh(w.nets[pt.net].cfg)
		net = m
		if e.tr != nil {
			timed = &timedNet{Network: m, t: e.tr}
			net = timed
		}
		return net, m.Backend()
	})
	op := fmt.Sprintf("%s|%s|%g|s%d", w.nets[pt.net].name, pt.cfg.Pattern, pt.cfg.InjectionRate, pt.cfg.Seed)
	id := e.tr.begin("traffic.run", op, 0)
	res := r.Run(pt.cfg)
	e.tr.end(id)
	if timed != nil {
		timed.done()
	}
	return res, net.Stats()
}

func (w *openLoop) pass(e *env) passStats {
	var ps passStats
	start := time.Now()
	for _, pt := range w.points {
		res, ns := w.runPoint(e, pt)
		ps.points = append(ps.points, res)
		ps.simCycles += ns.Cycles
		ps.addNet(ns)
		if checkOpenPoint(e.chk, w.nets[pt.net].name, pt.cfg, res) {
			ps.runs++
		}
	}
	ps.wall = time.Since(start)
	return ps
}

// verify runs one sampled point a second time: the same (network, pattern,
// rate, seed) must return an identical traffic.Result.
func (w *openLoop) verify(e *env, ref passStats) {
	if len(ref.points) != len(w.points) {
		return // pass already reported the missing points
	}
	i := int(e.seed % uint64(len(w.points)))
	again, _ := w.runPoint(e, w.points[i])
	e.chk.check(again == ref.points[i], "open loop point %d run twice: %+v then %+v", i, ref.points[i], again)
}

// checkOpenPoint applies the per-point output checks.
func checkOpenPoint(chk *checker, net string, cfg traffic.Config, r traffic.Result) bool {
	ok := r.MeasuredPackets > 0 && r.P50Latency <= r.P99Latency && r.AcceptedLoad > 0
	chk.check(ok, "%s %s rate %g: measured %d packets, p50 %g, p99 %g, accepted %g",
		net, cfg.Pattern, cfg.InjectionRate, r.MeasuredPackets, r.P50Latency, r.P99Latency, r.AcceptedLoad)
	return ok
}
