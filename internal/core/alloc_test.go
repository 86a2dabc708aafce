package core

import (
	"testing"

	"repro/internal/timing"
	"repro/internal/workload"
)

// TestClosedLoopSteadyStateAllocatesNothing is the closed-loop allocation
// gate: once a bandwidth-bound run has warmed up (every ring, pool and scratch
// slice grown to its working size), a clock edge — core, interconnect and
// DRAM ticks, request injection, deliveries, the stall watchdog's progress
// sample and the idle-skip horizon scan — must not touch the heap, on the
// baseline mesh and on the throughput-effective double network alike.
func TestClosedLoopSteadyStateAllocatesNothing(t *testing.T) {
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{Baseline(mum), ThroughputEffective(mum)} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]timing.Domain, 0, 3)
			edge := func() {
				var icntTicked bool
				buf, icntTicked = sys.stepEdges(buf)
				if icntTicked {
					_ = sys.progress()
					sys.maybeSkip(nil, defaultMaxIcntCycles)
				}
			}
			const warm, measured = 60000, 20000
			for i := 0; i < warm; i++ {
				edge()
			}
			if sys.done() {
				t.Fatalf("run finished inside the %d-edge warm-up; nothing left to measure", warm)
			}
			before := sys.NetStats().FlitHops
			if avg := testing.AllocsPerRun(measured, edge); avg != 0 {
				t.Errorf("%.4f allocations per clock edge in steady state, want 0", avg)
			}
			if sys.done() {
				t.Fatalf("run finished inside the measured window")
			}
			if sys.NetStats().FlitHops == before {
				t.Fatal("no flit moved in the measured window; the gate measured an idle system")
			}
		})
	}
}
