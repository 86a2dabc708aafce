package core

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestClosedLoopSteadyStateAllocatesNothing is the closed-loop allocation
// gate: once a bandwidth-bound run has warmed up (every ring, pool and scratch
// slice grown to its working size), a step of the cycle loop — core,
// interconnect and DRAM edges, request injection, the delivered-set drain,
// the stall watchdog's progress sample and the wake-horizon reads — must
// not touch the heap, on the baseline mesh, the throughput-effective double
// network and the perfect (ideal) network alike.
func TestClosedLoopSteadyStateAllocatesNothing(t *testing.T) {
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cfg := range []Config{Baseline(mum), ThroughputEffective(mum), Perfect(mum)} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := func() {
				if !sys.step(ctx) {
					t.Fatal("run retired inside the gate")
				}
			}
			ejected := func() (n uint64) {
				for _, v := range sys.NetStats().EjectedFlits {
					n += v
				}
				return n
			}
			const warm, measured = 60000, 20000
			for i := 0; i < warm; i++ {
				step()
			}
			before := ejected()
			if avg := testing.AllocsPerRun(measured, step); avg != 0 {
				t.Errorf("%.4f allocations per step in steady state, want 0", avg)
			}
			if ejected() == before {
				t.Fatal("nothing was delivered in the measured window; the gate measured an idle system")
			}
		})
	}
}
