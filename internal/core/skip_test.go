package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/workload"
)

// checkSkipEquivalence runs cfg with dormancy elision disabled, then width
// copies of it with elision enabled (the default) at once, and fails unless
// every copy is bit-identical to the reference: the same Result (Status
// included), network counters and digest, and for a degraded run the same
// error and the same diagnostic dump. Field-level comparison runs first so
// a divergence points at the counter that drifted, not just at a hash. It
// returns the reference run's verdict, nil when the run completed, for the
// caller to judge.
func checkSkipEquivalence(t *testing.T, cfg Config, width int) error {
	t.Helper()

	off := cfg
	off.NoIdleSkip = true
	sysOff, err := NewSystem(off)
	if err != nil {
		t.Fatal(err)
	}
	resOff, errOff := sysOff.Run(nil)

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
		if sysOn == nil {
			t.Fatalf("copy %d failed to build: %v", c, errs[c])
		}
		if v, ref := verdictOf(errs[c]), verdictOf(errOff); v != ref {
			t.Errorf("copy %d: verdict differs with skipping:\n skip:    %s\n no-skip: %s", c, v, ref)
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
	return errOff
}

// verdictOf renders a run's verdict for comparison: the error text and, for
// a hang, the full diagnostic dump.
func verdictOf(err error) string {
	if err == nil {
		return "ok"
	}
	var he *fault.HangError
	if errors.As(err, &he) {
		return err.Error() + "\n" + he.Diag.String()
	}
	return err.Error()
}

// TestIdleSkipEquivalence proves dormancy elision is invisible: every
// golden configuration must produce the SAME digest with elision enabled
// and disabled, at every width of the determinism matrix.
func TestIdleSkipEquivalence(t *testing.T) {
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, width := range goldenWidths {
			width := width
			t.Run(fmt.Sprintf("%s/shards-%d", gc.id, width), func(t *testing.T) {
				if err := checkSkipEquivalence(t, gc.build(), width); err != nil {
					t.Fatalf("run degraded: %v", err)
				}
			})
		}
	}
}

// memBoundConfig is the stall-dominated regime the golden matrix barely
// enters: a single core parking its only warp on a deep (128-cycle) memory
// pipeline, so nearly every edge finds every component dormant. This is
// the configuration BenchmarkIdleSkipClosedLoop times.
func memBoundConfig() Config {
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
	return cfg
}

// TestIdleSkipEquivalenceMemBound covers memBoundConfig, where elision
// rather than real ticks settles almost every component cycle: each
// dormant core, MC side and network pays its idle window with one skip
// credit when the next event wakes it.
func TestIdleSkipEquivalenceMemBound(t *testing.T) {
	cfg := memBoundConfig()
	for _, width := range []int{1, 2} {
		width := width
		t.Run(fmt.Sprintf("shards-%d", width), func(t *testing.T) {
			if err := checkSkipEquivalence(t, cfg, width); err != nil {
				t.Fatalf("run degraded: %v", err)
			}
		})
	}
}

// TestIdleSkipVerdictEquivalence pins the verdicts of degraded and
// fault-injected runs under elision: a cycle-capped run, a cycle-capped
// memory-bound run whose cap lands while every component is dormant, a
// wedged faulty network that the watchdogs must declare hung, and a faulty
// run that recovers must end with the same Result, status, error and
// diagnostic whether dormant components are elided or ticked every edge.
func TestIdleSkipVerdictEquivalence(t *testing.T) {
	capped := Baseline(quickProfile("HH"))
	capped.MaxIcntCycles = 200
	memCapped := memBoundConfig()
	memCapped.MaxIcntCycles = 2000
	wedged := Baseline(quickProfile("HH")).WithFaults(1, 3)
	wedged.Noc.Fault.CreditResyncCycles = 1 << 40
	wedged.Noc.Fault.RetxTimeout = 1 << 40
	wedged.Noc.Fault.WatchdogCycles = 2000
	recovers := Baseline(quickProfile("LL")).WithFaults(0.002, 7)
	recovers.Noc.Fault.RetxTimeout = 512
	cases := []struct {
		id   string
		cfg  Config
		want func(error) bool
	}{
		{"cycle-cap", capped, func(err error) bool { return errors.Is(err, fault.ErrCycleCap) }},
		{"membound-cycle-cap", memCapped, func(err error) bool { return errors.Is(err, fault.ErrCycleCap) }},
		{"wedged", wedged, isHang},
		{"faults-recover", recovers, func(err error) bool { return err == nil }},
	}
	for _, tc := range cases {
		for _, width := range []int{1, 2} {
			tc, width := tc, width
			t.Run(fmt.Sprintf("%s/shards-%d", tc.id, width), func(t *testing.T) {
				if err := checkSkipEquivalence(t, tc.cfg, width); !tc.want(err) {
					t.Fatalf("unexpected verdict: %v", err)
				}
			})
		}
	}
}
