package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/timing"
)

// stallCheckPeriod is how often (in interconnect cycles) the loop feeds the
// system-level stall watchdog.
const stallCheckPeriod = 64

// ctxCheckPeriod is how often (in interconnect cycles) the loop polls its
// context for a deadline or cancellation. Coarse enough to stay off the
// hot path, fine enough that a timed-out run dies within microseconds.
const ctxCheckPeriod = 256

// ctxCondition maps a context error to the typed fault vocabulary.
func ctxCondition(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fault.ErrTimeout
	}
	return fault.ErrCanceled
}

// bitset is a fixed-size set over small non-negative indices (cores, nodes,
// delivery slots), iterated in ascending order.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// loop is the closed-loop cycle loop's state: the dormancy bookkeeping that
// lets step elide ticks on components whose work horizon has not arrived,
// the push-style work sets, and the run's outcome. System embeds it; solo
// Run and every lane of RunLanes drive the same step function over it.
//
// Per component the loop stores a wake threshold and a credit watermark:
//
//   - cred counts the domain cycles already applied to the component, by
//     real ticks or by SkipAhead-family credits. Paying a component "up to
//     C" means calling its skip credit for the (C - cred) elided idle
//     cycles; by the idle-horizon contract that is bit-identical to having
//     ticked it through them, as long as the window stays inside the bound
//     its NextWorkCycle gave and no external event landed inside it.
//   - wake is the post-step domain cycle count at which the component must
//     really tick again. 0 means awake (tick every edge); NeverCycle means
//     dormant until an external event. Every event that can create work for
//     a component (a delivery, a popped request, the other clock side of an
//     MC doing real work) pays the component up to the current count first
//     and then clears its wake, so no elided window ever spans an event.
//
// Cores keep the wake as a bit: a core is awake (ticked on core edges) or
// dormant (asleep with an empty out-queue, woken only by a fill).
type loop struct {
	wd      *fault.Watchdog // system stall watchdog; nil when unmonitored
	buf     []timing.Domain
	maxIcnt uint64
	elide   bool // dormancy elision (off under NoIdleSkip)

	coreCred []uint64
	awake    bitset // cores ticked on core edges; the rest are dormant
	outbound bitset // cores with a non-empty out-queue
	doneSet  bitset // cores observed Done (completion is monotonic)

	netCred  uint64
	netWake  uint64
	icntCred []uint64 // per MC, interconnect side
	icntWake []uint64
	dramCred []uint64 // per MC, DRAM side
	dramWake []uint64

	// Delivery scratch: the network ORs its undrained-batch nodes into
	// delivered, which slotOf maps into slots — cores by index, then MCs by
	// index — so draining visits exactly the polled order.
	delivered bitset
	slots     bitset
	slotOf    []int

	res      Result
	runErr   error
	timedOut bool
	finished bool
}

// initLoop sizes the loop state once, at construction: every slice is
// O(cores + MCs + nodes), so the loop itself never allocates.
func (s *System) initLoop() {
	nc, nm := len(s.cores), len(s.mcs)
	s.buf = make([]timing.Domain, 0, timing.NumDomains)
	s.maxIcnt = s.cfg.MaxIcntCycles
	if s.maxIcnt == 0 {
		s.maxIcnt = defaultMaxIcntCycles
	}
	s.elide = !s.cfg.NoIdleSkip
	// The system stall watchdog backs up the network's: it watches total
	// forward progress (instructions, memory work and flit movement), so it
	// also catches hangs outside the network. Same window, in icnt cycles.
	if s.cfg.Noc.Fault.Monitored() {
		s.wd = fault.NewWatchdog(s.cfg.Noc.Fault.WatchdogCycles)
	}
	s.coreCred = make([]uint64, nc)
	s.awake = newBitset(nc)
	for i := range s.cores {
		s.awake.set(i)
	}
	s.outbound = newBitset(nc)
	s.doneSet = newBitset(nc)
	s.icntCred = make([]uint64, nm)
	s.icntWake = make([]uint64, nm)
	s.dramCred = make([]uint64, nm)
	s.dramWake = make([]uint64, nm)
	nodes := s.backend.NumNodes()
	s.delivered = newBitset(nodes)
	s.slots = newBitset(nc + nm)
	s.slotOf = make([]int, nodes)
	for i, node := range s.coreNodes {
		s.slotOf[node] = i
	}
	for j, node := range s.mcNodes {
		s.slotOf[node] = nc + j
	}
}

// step advances the run by one scheduler edge and reports whether it is
// still live: the loop-top done check, cycle cap and context poll, the
// domain edges, the health check and the stall watchdog. Component ticks
// are gated by the dormancy state; everything else is the edge-by-edge
// algorithm, so every verdict fires on the cycle it would without elision.
func (s *System) step(ctx context.Context) bool {
	if s.done() {
		s.finish()
		return false
	}
	icnt := s.sched.Cycles(timing.DomainInterconnect)
	if icnt >= s.maxIcnt {
		s.timedOut = true
		s.hang(fault.ErrCycleCap, "cycle-cap")
		return false
	}
	if icnt%ctxCheckPeriod == 0 {
		if cerr := ctx.Err(); cerr != nil {
			cond := ctxCondition(cerr)
			s.hang(cond, statusOf(cond))
			return false
		}
	}
	s.buf = s.sched.Step(s.buf)
	for _, d := range s.buf {
		switch d {
		case timing.DomainCore:
			s.coreEdge()
		case timing.DomainInterconnect:
			s.icntEdge()
		case timing.DomainDRAM:
			s.dramEdge()
		}
	}
	if err := s.net.Health(); err != nil {
		s.fail(err)
		return false
	}
	if s.wd != nil && icnt%stallCheckPeriod == 0 &&
		s.wd.Observe(icnt, s.progress(), 1) {
		s.hang(fault.ErrStall, "stall")
		return false
	}
	return true
}

// hang retires the run with a system-level verdict. Components are paid up
// first, so the diagnostic reads the state edge-by-edge stepping leaves.
func (s *System) hang(cond error, kind string) {
	s.payAll()
	s.fail(fault.Hang(cond, s.diagnose(kind)))
}

// fail records a degradation verdict and retires the run.
func (s *System) fail(err error) {
	s.runErr = err
	s.finish()
}

// finish pays every component up to its final cycle count and assembles the
// Result.
func (s *System) finish() {
	s.payAll()
	s.res = s.result(s.timedOut)
	s.res.Status = statusOf(s.runErr)
	s.finished = true
}

// payAll settles every outstanding elision credit, bringing each component
// to its domain's current cycle count. Idempotent.
func (s *System) payAll() {
	cc := s.sched.Cycles(timing.DomainCore)
	for i, c := range s.cores {
		if k := cc - s.coreCred[i]; k > 0 {
			c.SkipAhead(k)
			s.coreCred[i] = cc
		}
	}
	ic := s.sched.Cycles(timing.DomainInterconnect)
	if k := ic - s.netCred; k > 0 {
		s.net.SkipAhead(k)
		s.netCred = ic
	}
	dc := s.sched.Cycles(timing.DomainDRAM)
	for j, mc := range s.mcs {
		if k := ic - s.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
			s.icntCred[j] = ic
		}
		if k := dc - s.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
			s.dramCred[j] = dc
		}
	}
}

// wakeCore pays core i up to the current core-domain count and marks it
// awake, so an external event (fill delivery, popped request) never lands
// inside an elided window. On an awake, caught-up core it is a no-op.
func (s *System) wakeCore(i int) {
	cc := s.sched.Cycles(timing.DomainCore)
	if k := cc - s.coreCred[i]; k > 0 {
		s.cores[i].SkipAhead(k)
		s.coreCred[i] = cc
	}
	s.awake.set(i)
}

// settleCore runs after every event that can change core i — a tick, a
// fill, an injection attempt. It records whether the core has a request to
// send and, with nothing to send, whether it has finished (a core finishes
// only inside a tick or a pop, so recording it here keeps done() exact) and
// whether its horizon is NeverCycle. With elision on, such a core goes to
// sleep: no tick does anything until the next fill, and wakeCore pays the
// elided cycles then.
func (s *System) settleCore(i int) {
	c := s.cores[i]
	if _, ok := c.PeekRequest(); ok {
		s.outbound.set(i)
		return
	}
	s.outbound.clear(i)
	if !s.doneSet.has(i) && c.Done() {
		s.doneSet.set(i)
	}
	if s.elide && c.Asleep() {
		s.awake.clear(i)
	}
}

// coreEdge runs the core-domain edge: every awake core ticks. An awake core
// was ticked on the previous core edge or paid up to it when woken, so this
// tick is the only cycle it is owed.
func (s *System) coreEdge() {
	cc := s.sched.Cycles(timing.DomainCore)
	for wi, w := range s.awake {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			s.cores[i].Tick()
			s.coreCred[i] = cc
			s.settleCore(i)
		}
	}
}

// dramEdge runs the DRAM-domain edge for every MC whose DRAM wake has
// arrived. Before a real TickDRAM the MC's interconnect side is paid up
// (TickDRAM can push replies, and SkipIcnt's Busy() accounting must never
// span a state change); afterwards both horizons are recomputed, since a
// completed read wakes the interconnect side.
func (s *System) dramEdge() {
	dc := s.sched.Cycles(timing.DomainDRAM)
	ic := s.sched.Cycles(timing.DomainInterconnect)
	for j, mc := range s.mcs {
		if dc < s.dramWake[j] {
			continue
		}
		if k := ic - s.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
			s.icntCred[j] = ic
		}
		if k := dc - 1 - s.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
		}
		mc.TickDRAM()
		s.dramCred[j] = dc
		if s.elide {
			s.dramWake[j] = mc.NextDRAMWorkCycle()
			s.icntWake[j] = icntWakeOf(mc, ic)
		}
	}
}

// icntWakeOf converts an MC's interconnect-side horizon (the cycle argument
// of the first TickIcnt with work, given the current post-step count) into
// the post-step count at which that tick runs.
func icntWakeOf(mc *mem.MCNode, now uint64) uint64 {
	w := mc.NextIcntWorkCycle(now)
	if w == mem.NeverCycle {
		return mem.NeverCycle
	}
	return w + 1
}

// icntEdge runs the interconnect-domain edge: core requests enter the
// network, MCs process and inject replies, the network moves flits, and
// deliveries fan back out to cores and MCs. When no core has an outbound
// request, no MC's interconnect wake has arrived and the network's horizon
// has not arrived either, the whole edge is provably idle and nothing is
// touched — the elided cycle is paid later by each component's skip credit.
func (s *System) icntEdge() {
	ic := s.sched.Cycles(timing.DomainInterconnect) // post-step count
	if ic < s.netWake && s.outbound.empty() && !s.mcWakeDue(ic) {
		return
	}
	// Injections and MC ticks must observe the true network clock.
	if k := ic - 1 - s.netCred; k > 0 {
		s.net.SkipAhead(k)
	}
	s.injectRequests()
	cycle := s.net.Cycle() // == ic-1, the pre-tick count
	dc := s.sched.Cycles(timing.DomainDRAM)
	for j, mc := range s.mcs {
		if ic < s.icntWake[j] {
			continue
		}
		// Pay the DRAM side first: servicing a request may enqueue DRAM
		// work, and SkipDRAM's accounting must never span that change.
		if k := dc - s.dramCred[j]; k > 0 {
			mc.SkipDRAM(k)
			s.dramCred[j] = dc
		}
		if k := ic - 1 - s.icntCred[j]; k > 0 {
			mc.SkipIcnt(k)
		}
		mc.TickIcnt(cycle, s.net)
		s.icntCred[j] = ic
		if s.elide {
			s.icntWake[j] = icntWakeOf(mc, ic)
			s.dramWake[j] = mc.NextDRAMWorkCycle()
		}
	}
	s.net.Tick()
	s.netCred = ic
	s.drainDeliveries(ic)
	if s.elide {
		s.netWake = s.net.NextWorkCycle()
	}
}

// mcWakeDue reports whether some MC's interconnect side works at count ic.
func (s *System) mcWakeDue(ic uint64) bool {
	for _, w := range s.icntWake {
		if ic >= w {
			return true
		}
	}
	return false
}

// injectRequests offers the outbound cores' queued requests to the network,
// in ascending core order, until each core's queue drains or the network
// refuses. A successful injection pays and wakes the core before PopRequest
// mutates it.
func (s *System) injectRequests() {
	for wi, w := range s.outbound {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			c := s.cores[i]
			for {
				req, ok := c.PeekRequest()
				if !ok {
					break
				}
				pkt := s.packetFor(s.coreNodes[i], req)
				if !s.net.TryInject(pkt) {
					s.pool.Put(pkt)
					break
				}
				s.wakeCore(i)
				c.PopRequest()
			}
			s.settleCore(i)
		}
	}
}

// drainDeliveries hands the cycle's delivered packets to their cores and
// MCs, paying and waking each receiver before its delivery lands. Only the
// nodes the network flags are visited, in the polled order — cores by
// index, then MCs by index — so pool recycling, and with it every result,
// is what polling every node produced.
func (s *System) drainDeliveries(ic uint64) {
	clear(s.delivered)
	s.net.DeliveredSet(s.delivered)
	for wi, w := range s.delivered {
		for ; w != 0; w &= w - 1 {
			s.slots.set(s.slotOf[wi<<6+bits.TrailingZeros64(w)])
		}
	}
	nc := len(s.cores)
	for wi, w := range s.slots {
		s.slots[wi] = 0
		for ; w != 0; w &= w - 1 {
			k := wi<<6 + bits.TrailingZeros64(w)
			if k < nc {
				s.deliverFills(k)
				continue
			}
			j := k - nc
			for _, pkt := range s.net.Delivered(s.mcNodes[j]) {
				if n := ic - s.icntCred[j]; n > 0 {
					s.mcs[j].SkipIcnt(n)
					s.icntCred[j] = ic
				}
				s.icntWake[j] = 0 // a queued request means work on the next edge
				s.mcs[j].AcceptRequest(pkt)
				s.pool.Put(pkt)
			}
		}
	}
}

// deliverFills lands core i's delivered replies as L1 fills.
func (s *System) deliverFills(i int) {
	node := s.coreNodes[i]
	c := s.cores[i]
	for _, pkt := range s.net.Delivered(node) {
		if pkt.Class != noc.ClassReply {
			panic(fmt.Sprintf("core: compute node %d received non-reply packet %d", node, pkt.ID))
		}
		s.wakeCore(i)
		c.DeliverFill(addr.Address(pkt.Line))
		s.pool.Put(pkt)
	}
	s.settleCore(i)
}
