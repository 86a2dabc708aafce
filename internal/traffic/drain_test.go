package traffic

import (
	"testing"

	"repro/internal/noc"
)

// horizonStub is a scripted noc.Network for probing the drain epilogue: it
// accepts no packets, reports a busy horizon (next cycle) until busyUntil,
// then goes permanently idle. A held packet is delivered at its Dst on the
// first cycle the driver looks; since every reply is refused, the reply it
// triggers stays in the backlog. Counters record how the loop drove it.
type horizonStub struct {
	cycle     uint64
	busyUntil uint64 // horizon = cycle+1 while cycle < busyUntil, then Never
	held      *noc.Packet
	ticks     int
	skipped   uint64
	skipCalls int
	stats     noc.NetStats
}

func (h *horizonStub) TryInject(p *noc.Packet) bool                    { return false }
func (h *horizonStub) CanInject(n noc.NodeID, c noc.TrafficClass) bool { return false }
func (h *horizonStub) Tick()                                           { h.cycle++; h.ticks++ }
func (h *horizonStub) Cycle() uint64                                   { return h.cycle }
func (h *horizonStub) Quiet() bool                                     { return true }
func (h *horizonStub) Health() error                                   { return nil }
func (h *horizonStub) Delivered() []*noc.Packet {
	if h.held == nil {
		return nil
	}
	p := h.held
	h.held = nil
	return []*noc.Packet{p}
}
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

// TestLaneRetirementMixedHorizons pins the open-loop drain epilogue. The
// name is kept from the lockstep lane loop it used to probe; the loop is
// solo now. A network that stays busy for thousands of drain cycles must be
// ticked edge by edge to its horizon, and the moment its horizon clears the
// end of the run the remaining window must be credited in ONE bulk skip
// plus the final tick. A non-empty reply backlog blocks the skip however
// idle the network is. Either way every cycle of the run is accounted for.
func TestLaneRetirementMixedHorizons(t *testing.T) {
	const (
		warmup  = 10
		measure = 10
		drain   = 5000
		total   = warmup + measure + drain
	)
	backend := noc.MustBuildBackend(noc.DefaultConfig())
	run := func(h *horizonStub) {
		cfg := DefaultConfig()
		cfg.InjectionRate = 0 // the stub accepts nothing; drive pure cycle accounting
		cfg.WarmupCycles = warmup
		cfg.MeasureCycles = measure
		cfg.DrainCycles = drain
		NewRunner(func() (noc.Network, noc.Backend) { return h, backend }).Run(cfg)
	}

	busy := &horizonStub{busyUntil: warmup + measure + 4000}
	run(busy)
	if busy.cycle != total {
		t.Fatalf("busy network ran %d cycles, want %d", busy.cycle, total)
	}
	if wantTicks := int(busy.busyUntil) + 1; busy.ticks != wantTicks {
		t.Errorf("busy network ticked %d times, want %d (edge by edge to its horizon, then the final tick)",
			busy.ticks, wantTicks)
	}
	if wantSkip := uint64(total) - busy.busyUntil - 1; busy.skipCalls != 1 || busy.skipped != wantSkip {
		t.Errorf("busy network skipped %d cycles in %d calls, want %d in 1", busy.skipped, busy.skipCalls, wantSkip)
	}

	// An idle network whose one MC holds an unsendable reply from cycle 0.
	blocked := &horizonStub{held: &noc.Packet{
		Src: backend.ComputeNodes()[0], Dst: backend.MCs()[0], Class: noc.ClassRequest,
	}}
	run(blocked)
	if blocked.held != nil {
		t.Fatal("the held request was never drained")
	}
	if blocked.cycle != total || blocked.ticks != total || blocked.skipCalls != 0 {
		t.Errorf("backlogged network: %d cycles, %d ticks, %d skips; want %d, %d, 0",
			blocked.cycle, blocked.ticks, blocked.skipCalls, total, total)
	}
}
