package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/noc"
	"repro/internal/timing"
)

// checkLoopInvariants holds the cycle loop's push-style state to what it
// summarizes, between two steps of a live run.
func checkLoopInvariants(t *testing.T, s *System, step int) {
	t.Helper()
	cc := s.sched.Cycles(timing.DomainCore)
	ic := s.sched.Cycles(timing.DomainInterconnect)
	dc := s.sched.Cycles(timing.DomainDRAM)
	for i, c := range s.cores {
		_, out := c.PeekRequest()
		if s.outbound.has(i) != out {
			t.Fatalf("step %d core %d: outbound bit %v, PeekRequest ok %v", step, i, s.outbound.has(i), out)
		}
		if !s.awake.has(i) {
			checkDormantCore(t, s, step, i)
		} else if filed := wheelSlotsOf(s, i); len(filed) > 0 {
			t.Fatalf("step %d core %d: awake but filed in wheel slots %v", step, i, filed)
		}
		if s.doneSet.has(i) != c.Done() {
			t.Fatalf("step %d core %d: recorded done %v, Done() %v", step, i, s.doneSet.has(i), c.Done())
		}
		if s.coreCred[i] > cc {
			t.Fatalf("step %d core %d: credit %d past the core count %d", step, i, s.coreCred[i], cc)
		}
		if s.awake.has(i) && s.coreCred[i] != cc {
			t.Fatalf("step %d core %d: awake with credit %d behind the core count %d", step, i, s.coreCred[i], cc)
		}
	}
	if s.netCred > ic {
		t.Fatalf("step %d: network credit %d past the interconnect count %d", step, s.netCred, ic)
	}
	for j := range s.mcs {
		if s.icntCred[j] > ic || s.dramCred[j] > dc {
			t.Fatalf("step %d MC %d: credits icnt %d dram %d past counts %d/%d",
				step, j, s.icntCred[j], s.dramCred[j], ic, dc)
		}
	}
	if d := s.net.Delivered(); len(d) != 0 {
		t.Fatalf("step %d: %d undrained deliveries, the first at node %d", step, len(d), d[0].Dst)
	}
}

// wheelSlotsOf lists the wheel slots that hold core i.
func wheelSlotsOf(s *System, i int) []uint64 {
	var slots []uint64
	for k := uint64(0); k <= s.wheelMask; k++ {
		if s.wheelSlot(k).has(i) {
			slots = append(slots, k)
		}
	}
	return slots
}

// checkDormantCore holds a dormant core to where the loop keeps it: filed
// in exactly one wheel slot, which fires on a core edge no later than the
// core's horizon, or untimed with horizon NeverCycle; and with nothing to
// send either way.
func checkDormantCore(t *testing.T, s *System, step, i int) {
	t.Helper()
	if !s.elide {
		t.Fatalf("step %d core %d: dormant with elision off", step, i)
	}
	c := s.cores[i]
	if _, out := c.PeekRequest(); out {
		t.Fatalf("step %d core %d: dormant with a queued request", step, i)
	}
	h := c.NextWorkCycle()
	switch filed := wheelSlotsOf(s, i); len(filed) {
	case 0:
		if h != gpu.NeverCycle {
			t.Fatalf("step %d core %d: dormant untimed with horizon %d", step, i, h)
		}
	case 1:
		// The slot fires on the first core edge past the current count
		// whose count it holds: the current count's own slot was emptied
		// when that edge ran.
		cc := s.sched.Cycles(timing.DomainCore)
		fires := cc + 1 + ((filed[0] - cc - 1) & s.wheelMask)
		if fires > h {
			t.Fatalf("step %d core %d: filed to wake at core count %d, past its horizon %d", step, i, fires, h)
		}
	default:
		t.Fatalf("step %d core %d: filed in wheel slots %v", step, i, filed)
	}
}

// TestDormancyInvariants drives lane batches step by step, elision on and
// off, and checks after every step that a dormant core has nothing to send
// and is untimed with horizon NeverCycle or filed in one wheel slot that
// fires by its horizon, that the outbound set is exactly the cores with a
// queued request, that the recorded completions are exactly the finished
// cores, that no credit watermark runs ahead of its domain, that an awake
// core's watermark is its domain's count (so a core edge never owes it idle
// credit) and that every delivery batch was drained.
func TestDormancyInvariants(t *testing.T) {
	hh := quickProfile("HH")
	cases := []struct {
		id  string
		cfg Config
	}{
		{"baseline-dor", Baseline(hh).ScaleWork(goldenScale)},
		{"double-net", Baseline(hh).WithCheckerboardRouting().WithDoubleNetwork().ScaleWork(goldenScale)},
		{"perfect", Perfect(hh).ScaleWork(goldenScale)},
		{"faults-on", Baseline(quickProfile("LL")).WithFaults(0.002, 7).ScaleWork(goldenScale)},
	}
	for _, tc := range cases {
		for _, lanesN := range goldenLaneCounts {
			for _, noSkip := range []bool{false, true} {
				cfg := tc.cfg
				cfg.NoIdleSkip = noSkip
				lanesN := lanesN
				t.Run(fmt.Sprintf("%s/lanes-%d/noskip-%v", tc.id, lanesN, noSkip), func(t *testing.T) {
					seeds := make([]uint64, lanesN)
					for i := range seeds {
						seeds[i] = cfg.Seed + uint64(i)
					}
					lanes, errs := newLanes(cfg, seeds)
					for i, s := range lanes {
						if s == nil {
							t.Fatalf("lane %d failed to build: %v", i, errs[i])
						}
						checkLoopInvariants(t, s, 0)
					}
					ctx := context.Background()
					for step, live := 1, true; live; step++ {
						live = false
						for _, s := range lanes {
							if !s.finished && s.step(ctx) {
								live = true
								checkLoopInvariants(t, s, step)
							}
						}
					}
					for i, s := range lanes {
						if s.runErr != nil {
							t.Fatalf("lane %d degraded: %v", i, s.runErr)
						}
					}
				})
			}
		}
	}
}

// requestAtCore is a stub network that hands a compute node a
// request-class packet, which the loop must reject.
type requestAtCore struct {
	noc.Network
	pkt noc.Packet
}

func (n *requestAtCore) Delivered() []*noc.Packet { return []*noc.Packet{&n.pkt} }

// TestNonReplyAtComputeNodePanics pins the loop's protocol check: a compute
// node can only receive replies, and the panic names the node and packet.
func TestNonReplyAtComputeNodePanics(t *testing.T) {
	s, err := NewSystem(Perfect(quickProfile("LL")))
	if err != nil {
		t.Fatal(err)
	}
	node := s.coreNodes[3]
	s.net = &requestAtCore{Network: s.net, pkt: noc.Packet{ID: 42, Dst: node, Class: noc.ClassRequest}}
	want := fmt.Sprintf("core: compute node %d received non-reply packet 42", node)
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		s.step(ctx)
	}
	t.Fatal("a request delivered to a compute node did not panic")
}
