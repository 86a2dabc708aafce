package core

import (
	"fmt"
	"testing"

	"repro/internal/noc"
	"repro/internal/workload"
)

// checkSkipEquivalence runs cfg with idle-horizon fast-forwarding disabled,
// then width copies of it with fast-forwarding enabled (the default) at
// once, and fails unless every copy is bit-identical to the reference.
// Field-level comparison runs first so a divergence points at the counter
// that drifted, not just at a hash.
func checkSkipEquivalence(t *testing.T, cfg Config, width int) {
	t.Helper()

	off := cfg
	off.NoIdleSkip = true
	sysOff, err := NewSystem(off)
	if err != nil {
		t.Fatal(err)
	}
	resOff, errOff := sysOff.Run(nil)
	if errOff != nil {
		t.Fatalf("no-skip run degraded: %v", errOff)
	}

	on := cfg
	on.NoIdleSkip = false
	systems := make([]*System, width)
	results := make([]Result, width)
	errs := make([]error, width)
	concurrently(width, func(i int) {
		if systems[i], errs[i] = NewSystem(on); errs[i] == nil {
			results[i], errs[i] = systems[i].Run(nil)
		}
	})

	nsOff := sysOff.NetStats()
	dOff := digestRun(resOff, nsOff)
	for c, sysOn := range systems {
		if errs[c] != nil {
			t.Fatalf("skip run, copy %d: %v", c, errs[c])
		}
		resOn, nsOn := results[c], sysOn.NetStats()
		if resOn != resOff {
			t.Errorf("copy %d: Result differs with skipping:\n skip:    %+v\n no-skip: %+v", c, resOn, resOff)
		}
		if nsOn.Cycles != nsOff.Cycles {
			t.Errorf("copy %d: net Cycles: skip %d, no-skip %d", c, nsOn.Cycles, nsOff.Cycles)
		}
		if nsOn.FlitHops != nsOff.FlitHops {
			t.Errorf("copy %d: FlitHops: skip %d, no-skip %d", c, nsOn.FlitHops, nsOff.FlitHops)
		}
		for i := range nsOn.InjectedFlits {
			if nsOn.InjectedFlits[i] != nsOff.InjectedFlits[i] {
				t.Errorf("copy %d: InjectedFlits[%d]: skip %d, no-skip %d", c, i, nsOn.InjectedFlits[i], nsOff.InjectedFlits[i])
			}
		}
		if dOn := digestRun(resOn, nsOn); dOn != dOff {
			t.Errorf("copy %d: digest differs with skipping: %s vs %s", c, dOn, dOff)
		}
	}
}

// TestIdleSkipEquivalence proves idle-horizon fast-forwarding is invisible:
// every golden configuration must produce the SAME digest with skipping
// enabled and disabled, at every width of the determinism matrix.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, width := range goldenWidths {
			width := width
			t.Run(fmt.Sprintf("%s/shards-%d", gc.id, width), func(t *testing.T) {
				checkSkipEquivalence(t, gc.build(), width)
			})
		}
	}
}

// TestIdleSkipEquivalenceMemBound covers the stall-dominated regime the
// golden matrix barely enters: a single core parking its only warp on a
// deep (128-cycle) memory pipeline, so nearly every cycle sits inside a
// skippable window and the fast-forward machinery — not the edge-by-edge
// path — produces almost all of the run. This is the configuration
// BenchmarkIdleSkipClosedLoop times.
func TestIdleSkipEquivalenceMemBound(t *testing.T) {
	prof := workload.Profile{
		Name: "MemStall", Abbr: "MSTL", Class: "LH",
		Warps: 1, InstrsPerWarp: 600,
		MemFraction: 1.0, WriteFraction: 0, LinesPerMemInstr: 1,
		ActiveThreads: 32, WorkingSetKB: 64,
		Sequential: 1.0, Reuse: 0,
	}
	cfg := Baseline(prof)
	cfg.Name = "IdleSkip-MemBound"
	nc := noc.DefaultConfig()
	nc.Width, nc.Height = 2, 2
	nc.MCs = []noc.NodeID{1, 2, 3}
	nc.RouterStages = 1
	nc.HalfRouterStages = 1
	nc.FlitBytes = 64
	cfg.Noc = nc
	cfg.Mem.L2Latency = 128
	for _, width := range []int{1, 2} {
		width := width
		t.Run(fmt.Sprintf("shards-%d", width), func(t *testing.T) {
			checkSkipEquivalence(t, cfg, width)
		})
	}
}
