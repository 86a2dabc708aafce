package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// closedLoop is the solo closed-loop workload: every config of one pass is
// built with core.NewSystem and driven by System.Run from cold L1/L2.
type closedLoop struct {
	name string
	cfgs []core.Config
}

// Kernel-length scales of one full pass. The issue sized the workloads at
// scale 1.0 (about 15 s a pass). A run here repeats a pass of about 1 s,
// bracketed by reference-kernel samples, and reports medians: on the
// sandbox many short passes are markedly steadier than a few long ones.
const (
	closedScale      = 0.075
	closedSmallScale = 0.01
)

func mustProfile(abbr string) workload.Profile {
	p, err := workload.ByAbbr(abbr)
	if err != nil {
		panic(err) // the abbreviations are literals in this package
	}
	return p
}

// newClosedHH is bandwidth-bound MUM on the baseline mesh and on the
// throughput-effective design (checkerboard routing, half-routers, double
// network, 2-port MCs).
func newClosedHH(e *env) *closedLoop {
	scale := closedScale
	if e.small {
		scale = closedSmallScale
	}
	p := mustProfile("MUM")
	w := &closedLoop{name: wlClosedHH}
	for _, c := range []core.Config{core.Baseline(p), core.ThroughputEffective(p)} {
		c = c.ScaleWork(scale)
		c.Seed = e.seed
		w.cfgs = append(w.cfgs, c)
	}
	return w
}

// newClosedPerfect is the class mix on the perfect network: the short LL/LH
// kernels run 4x longer so every benchmark contributes comparable time. At
// twice closed-hh's scale the 8 runs make a pass of about 1.2 s.
func newClosedPerfect(e *env) *closedLoop {
	scale := 2 * closedScale
	long, short := []string{"BIN", "CON", "RAY", "AES"}, []string{"LIB", "FWT", "MUM", "BFS"}
	if e.small {
		scale = closedSmallScale
		long, short = []string{"BIN"}, nil
	}
	w := &closedLoop{name: wlClosedPerfect}
	add := func(abbr string, f float64) {
		c := core.Perfect(mustProfile(abbr)).ScaleWork(f)
		c.Seed = e.seed
		w.cfgs = append(w.cfgs, c)
	}
	for _, abbr := range long {
		add(abbr, 4*scale)
	}
	for _, abbr := range short {
		add(abbr, scale)
	}
	return w
}

func (w *closedLoop) setup(e *env) error { return buildSystems(w.cfgs) }

// buildSystems constructs the system of every config and lets it go.
func buildSystems(cfgs []core.Config) error {
	for _, c := range cfgs {
		if _, err := core.NewSystem(c); err != nil {
			return err
		}
	}
	return nil
}

func (w *closedLoop) pass(e *env) passStats {
	var ps passStats
	start := time.Now()
	for _, c := range w.cfgs {
		op := fmt.Sprintf("%s|%s|s%d", c.Name, c.Workload.Abbr, c.Seed)
		id := e.tr.begin("core.new_system", op, 0)
		sys, err := core.NewSystem(c)
		e.tr.end(id)
		if err != nil {
			e.chk.check(false, "%s: NewSystem: %v", op, err)
			continue
		}
		id = e.tr.begin("core.run", op, 0)
		res, err := sys.Run(context.Background())
		e.tr.end(id)
		e.chk.check(err == nil, "%s: Run: %v", op, err)
		ps.addRun(e, c, res)
		ps.addNet(sys.NetStats())
		ps.soloRuns++
	}
	ps.wall = time.Since(start)
	checkClosedResults(e.chk, w.cfgs, ps.results)
	return ps
}

func (w *closedLoop) verify(e *env, ref passStats) {}

// checkClosedResults applies the closed-loop output checks: every run ok,
// and the retired ScalarInstrs equal across the configs of one
// (benchmark, seed) — the network may change cycles, never the work.
func checkClosedResults(chk *checker, cfgs []core.Config, results []core.Result) {
	chk.check(len(results) == len(cfgs), "closed loop: %d results for %d configs", len(results), len(cfgs))
	instrs := map[string]uint64{}
	for i, r := range results {
		if i >= len(cfgs) {
			break
		}
		c := cfgs[i]
		chk.check(r.Status == "ok", "%s %s seed %d: status %q", c.Name, c.Workload.Abbr, c.Seed, r.Status)
		key := fmt.Sprintf("%s|s%d|i%d", c.Workload.Abbr, c.Seed, c.Workload.InstrsPerWarp)
		if want, seen := instrs[key]; seen {
			chk.check(r.ScalarInstrs == want, "%s on %s: %d scalar instrs, other configs retired %d",
				key, c.Name, r.ScalarInstrs, want)
		} else {
			instrs[key] = r.ScalarInstrs
		}
	}
}
