package traffic

import (
	"testing"

	"repro/internal/noc"
)

// horizonStub is a scripted noc.Network for probing the lockstep loop's
// retirement and min-reduce behaviour: it carries no packets, reports a
// busy horizon (next cycle) until busyUntil, then goes permanently idle.
// Counters record how the loop drove it.
type horizonStub struct {
	cycle     uint64
	busyUntil uint64 // horizon = cycle+1 while cycle < busyUntil, then Never
	ticks     int
	skipped   uint64
	skipCalls int
	stats     noc.NetStats
}

func (h *horizonStub) TryInject(p *noc.Packet) bool                    { return false }
func (h *horizonStub) CanInject(n noc.NodeID, c noc.TrafficClass) bool { return false }
func (h *horizonStub) Tick()                                           { h.cycle++; h.ticks++ }
func (h *horizonStub) Delivered(n noc.NodeID) []*noc.Packet            { return nil }
func (h *horizonStub) DeliveredSet(dst []uint64)                       {}
func (h *horizonStub) Cycle() uint64                                   { return h.cycle }
func (h *horizonStub) Quiet() bool                                     { return true }
func (h *horizonStub) Health() error                                   { return nil }
func (h *horizonStub) Stats() *noc.NetStats {
	h.stats.Cycles = h.cycle
	return &h.stats
}
func (h *horizonStub) NextWorkCycle() uint64 {
	if h.cycle < h.busyUntil {
		return h.cycle + 1
	}
	return noc.NeverCycle
}
func (h *horizonStub) SkipAhead(k uint64) {
	h.cycle += k
	h.skipped += k
	h.skipCalls++
}

// TestLaneRetirementMixedHorizons pins the lockstep loop's retirement
// contract on a mixed-horizon batch: one lane goes idle thousands of cycles
// before the other. The early lane must retire the moment its horizon
// clears the end of the run — its remaining window credited in ONE bulk
// skip plus the final tick, after which it stops ticking and stops
// clamping the sibling's horizon — while the busy lane ticks edge-by-edge
// to the end. Both lanes must still account for every cycle of the run.
func TestLaneRetirementMixedHorizons(t *testing.T) {
	const (
		warmup  = 10
		measure = 10
		drain   = 5000
		total   = warmup + measure + drain
	)
	// Lane 0 drains right after injection stops; lane 1 stays busy for
	// thousands of drain cycles.
	stubs := []*horizonStub{
		{busyUntil: warmup + measure + 3},
		{busyUntil: warmup + measure + 4000},
	}
	backend := noc.MustBuildBackend(noc.DefaultConfig())
	next := 0
	runner := NewRunner(func() (noc.Network, noc.Backend) {
		s := stubs[next]
		next++
		return s, backend
	})
	cfg := DefaultConfig()
	cfg.InjectionRate = 0 // stubs accept nothing; drive pure cycle accounting
	cfg.WarmupCycles = warmup
	cfg.MeasureCycles = measure
	cfg.DrainCycles = drain
	cfg.Lanes = 2
	runner.RunLanes(cfg)

	early, late := stubs[0], stubs[1]
	if early.cycle != total || late.cycle != total {
		t.Fatalf("lanes must account for every cycle: early=%d late=%d want %d",
			early.cycle, late.cycle, total)
	}
	// The early lane retires at its first idle horizon check: everything
	// after busyUntil lands in exactly one bulk skip (plus the final tick),
	// not in edge-by-edge ticks alongside the still-busy sibling.
	if early.skipCalls != 1 {
		t.Errorf("early lane skip calls = %d, want 1 (single retirement credit)", early.skipCalls)
	}
	if wantSkip := uint64(total) - early.busyUntil - 1; early.skipped != wantSkip {
		t.Errorf("early lane skipped %d cycles, want %d", early.skipped, wantSkip)
	}
	if maxTicks := int(early.busyUntil) + 1; early.ticks > maxTicks {
		t.Errorf("early lane ticked %d times after retiring (want <= %d)", early.ticks, maxTicks)
	}
	// The late lane's horizon is next-cycle until it drains at busyUntil,
	// so the early lane's retirement must not drag it forward: it ticks
	// edge-by-edge through its whole busy window (4000 drain cycles after
	// the sibling went idle) and only then takes its own retirement credit.
	if wantTicks := int(late.busyUntil) + 1; late.ticks != wantTicks {
		t.Errorf("late lane ticked %d times, want %d (edge-by-edge to its own horizon)",
			late.ticks, wantTicks)
	}
	if wantSkip := uint64(total) - late.busyUntil - 1; late.skipCalls != 1 || late.skipped != wantSkip {
		t.Errorf("late lane skipped %d cycles in %d calls, want %d in 1 (own retirement only)",
			late.skipped, late.skipCalls, wantSkip)
	}
}
