package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/workload"
)

// TestClosedLoopSteadyStateAllocatesNothing is the closed-loop allocation
// gate: once a bandwidth-bound run has warmed up (every ring, pool and scratch
// slice grown to its working size), a step of the cycle loop — core,
// interconnect and DRAM edges, request injection, the delivery drain,
// the health check and the wake-horizon reads — must not touch the heap, on
// the baseline mesh, the throughput-effective double network and the
// perfect (ideal) network alike.
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

// TestNewSystemAllocations pins what building a system costs in heap
// allocations on the baseline mesh, the throughput-effective double network
// and the perfect network. The topology backend comes from noc's cache and
// each network is carved from a few per-network slabs, so the network's
// share is a handful of allocations; most of the count is the SIMT cores,
// their workload generators and the memory side.
func TestNewSystemAllocations(t *testing.T) {
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg Config
		max float64
	}{
		{Baseline(mum), 593},
		{ThroughputEffective(mum), 617},
		{Perfect(mum), 584},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := NewSystem(tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: NewSystem makes %.0f allocations, at most %.0f allowed", tc.cfg.Name, allocs, tc.max)
		}
	}
}

// TestRebuildAllocations is the recycled-construction gate. Building into a
// finished System of the same configuration — what a worker slot does
// between its runs — reuses every array and component, so only the address
// mapper is new: one allocation, against NewSystem's hundreds. A whole run
// on such a slot, the build, the cycle loop and its warm-up included, stays
// within three: the mapper and runLanes's lane and error slices. The packet
// pool's free list, the MSHR waiter lists, the warps' pending lines and the
// grown queues all come back from the last run. The test holds the System,
// so the slot reuses it whenever a collection runs.
func TestRebuildAllocations(t *testing.T) {
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, cfg := range []Config{Baseline(mum), ThroughputEffective(mum), Perfect(mum)} {
		cfg := cfg.ScaleWork(0.01)
		t.Run(cfg.Name, func(t *testing.T) {
			var sl Slot
			lanes, errs := sl.runLanes(ctx, cfg, []uint64{cfg.Seed})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			s := lanes[0] // held, so the slot's weak pointer resolves to it
			if allocs := testing.AllocsPerRun(10, func() {
				if err := s.build(cfg); err != nil {
					t.Fatal(err)
				}
			}); allocs > 1 {
				t.Errorf("building into a finished System makes %.0f allocations, at most 1 allowed", allocs)
			}
			if allocs := testing.AllocsPerRun(3, func() {
				if _, err := sl.Run(ctx, cfg); err != nil {
					t.Fatal(err)
				}
			}); allocs > 3 {
				t.Errorf("a run on a reused slot makes %.0f allocations, at most 3 allowed", allocs)
			}
			runtime.KeepAlive(s)
		})
	}
}
