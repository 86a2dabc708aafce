package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/reuse"
	"repro/internal/timing"
)

// ctxCheckPeriod is how often (in interconnect cycles) the loop polls its
// context for a deadline or cancellation. Coarse enough to stay off the
// hot path, fine enough that a timed-out run dies within microseconds.
const ctxCheckPeriod = 256

// ctxCondition maps a context error to the status and typed condition it
// ends a run with.
func ctxCondition(err error) (string, error) {
	if errors.Is(err, context.DeadlineExceeded) {
		return StatusTimeout, fault.ErrTimeout
	}
	return StatusCanceled, fault.ErrCanceled
}

// bitset is a fixed-size set over small non-negative indices (cores),
// iterated in ascending order.
type bitset []uint64

// reuseBitset returns an empty set over [0, n) on b's words where they fit.
func reuseBitset(b bitset, n int) bitset {
	return reuse.Slice(b, (n+63)/64)
}

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
// A core is in exactly one place: awake (ticked on every core edge), filed
// in the timer wheel slot of its finite horizon, or dormant untimed (its
// horizon is NeverCycle; only a fill or a pop wakes it).
type loop struct {
	buf     []timing.Domain
	maxIcnt uint64
	elide   bool // dormancy elision (off under NoIdleSkip)

	coreCred []uint64
	awake    bitset // cores ticked on core edges; the rest are dormant
	// wheel holds one core set per slot, len(awake) words each: slot
	// c&wheelMask holds the cores whose horizon is core count c. It has a
	// power-of-two number of slots, at least Config.Core.IssueCycles(), so
	// every finite horizon lands in a slot that fires no earlier than it.
	wheel     bitset
	wheelMask uint64
	outbound  bitset // cores with a non-empty out-queue
	doneSet   bitset // cores observed Done (completion is monotonic)

	netCred  uint64
	netWake  uint64
	icntCred []uint64 // per MC, interconnect side
	icntWake []uint64
	dramCred []uint64 // per MC, DRAM side
	dramWake []uint64

	// Delivery scratch: slotOf maps a node to its receiver — cores by
	// index, then MCs by index — and filled holds the cores a drain landed
	// fills on, settled once the drain is done.
	slotOf []int
	filled bitset

	res      Result
	runErr   error
	timedOut bool
	finished bool
}

// initLoop sizes the loop state once, at construction, on the arrays the
// System's previous loop state left in spare: every slice is O(cores + MCs
// + nodes), so the loop itself never allocates.
func (s *System) initLoop(spare *loop) {
	nc, nm := len(s.cores), len(s.mcs)
	nodes := s.backend.NumNodes()
	words := (nc + 63) / 64
	slots := 1 << bits.Len(uint(s.cfg.Core.IssueCycles()-1))
	// awake and the wheel share one array: awake first, then the slots.
	sets := reuse.Slice(spare.awake[:cap(spare.awake)], (1+slots)*words)
	s.loop = loop{
		buf:       reuse.Keep(spare.buf, timing.NumDomains)[:0],
		maxIcnt:   s.cfg.MaxIcntCycles,
		elide:     !s.cfg.NoIdleSkip,
		coreCred:  reuse.Slice(spare.coreCred, nc),
		awake:     sets[:words],
		wheel:     sets[words:],
		wheelMask: uint64(slots - 1),
		outbound:  reuseBitset(spare.outbound, nc),
		doneSet:   reuseBitset(spare.doneSet, nc),
		icntCred:  reuse.Slice(spare.icntCred, nm),
		icntWake:  reuse.Slice(spare.icntWake, nm),
		dramCred:  reuse.Slice(spare.dramCred, nm),
		dramWake:  reuse.Slice(spare.dramWake, nm),
		slotOf:    reuse.Slice(spare.slotOf, nodes),
		filled:    reuseBitset(spare.filled, nc),
	}
	if s.maxIcnt == 0 {
		s.maxIcnt = defaultMaxIcntCycles
	}
	for i := range s.cores {
		s.awake.set(i)
	}
	for i, node := range s.coreNodes {
		s.slotOf[node] = i
	}
	for j, node := range s.mcNodes {
		s.slotOf[node] = nc + j
	}
}

// step advances the run by one scheduler edge and reports whether it is
// still live: the loop-top done check, cycle cap and context poll, the
// domain edges and the network's health check. Component ticks
// are gated by the dormancy state; everything else is the edge-by-edge
// algorithm, so every verdict fires on the cycle it would without elision.
func (s *System) step(ctx context.Context) bool {
	if s.done() {
		s.finish(StatusOK)
		return false
	}
	icnt := s.sched.Cycles(timing.DomainInterconnect)
	if icnt >= s.maxIcnt {
		s.timedOut = true
		s.hang(StatusCycleCap, fault.ErrCycleCap)
		return false
	}
	if icnt%ctxCheckPeriod == 0 {
		if cerr := ctx.Err(); cerr != nil {
			s.hang(ctxCondition(cerr))
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
		var he *fault.HangError
		errors.As(err, &he) // the network's verdict names its status
		s.fail(he.Diag.Kind, err)
		return false
	}
	return true
}

// hang retires the run with a system-level verdict whose diagnostic kind is
// its status. Components are paid up first, so the diagnostic reads the
// state edge-by-edge stepping leaves.
func (s *System) hang(status string, cond error) {
	s.payAll()
	s.fail(status, fault.Hang(cond, s.diagnose(status)))
}

// fail records a degradation verdict and retires the run.
func (s *System) fail(status string, err error) {
	s.runErr = err
	s.finish(status)
}

// finish pays every component up to its final cycle count and assembles the
// Result with the status the run ended in.
func (s *System) finish(status string) {
	s.payAll()
	s.res = s.result(s.timedOut)
	s.res.Status = status
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

// wheelSlot returns the wheel slot that fires on core count cycle.
func (s *System) wheelSlot(cycle uint64) bitset {
	n := uint64(len(s.awake))
	k := (cycle & s.wheelMask) * n
	return s.wheel[k : k+n]
}

// wakeCore takes a dormant core i out of its wheel slot, pays it up to the
// current core-domain count and marks it awake, so an external event (fill
// delivery, popped request) never lands inside an elided window. An awake
// core is already paid up to the count, so it is left as it is.
func (s *System) wakeCore(i int) {
	if s.awake.has(i) {
		return
	}
	c := s.cores[i]
	// Nothing has changed the core since it was filed, so its horizon still
	// names its slot.
	if h := c.NextWorkCycle(); h != gpu.NeverCycle {
		s.wheelSlot(h).clear(i)
	}
	cc := s.sched.Cycles(timing.DomainCore)
	if k := cc - s.coreCred[i]; k > 0 {
		c.SkipAhead(k)
		s.coreCred[i] = cc
	}
	s.awake.set(i)
}

// settleCore runs after every event that can change core i — a tick, a
// fill, an injection attempt — while the core is awake and paid up to the
// core count. It records whether the core has a request to send and, with
// nothing to send, whether it has finished (a core finishes only inside a
// tick or a pop, so recording it here keeps done() exact). With elision on,
// such a core whose next working tick is not the next core edge leaves the
// awake set: filed in the wheel slot of its horizon, or untimed when only a
// fill can wake it. No tick before then does anything SkipAhead does not
// credit, and the wheel or wakeCore pays the elided cycles.
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
	if !s.elide {
		return
	}
	if h := c.NextWorkCycle(); h > s.coreCred[i]+1 {
		s.awake.clear(i)
		if h != gpu.NeverCycle {
			s.wheelSlot(h).set(i)
		}
	}
}

// coreEdge runs the core-domain edge: the cores filed for this count join
// the awake set, and every awake core ticks. A core ticked on the previous
// edge owes only this tick; a core from the wheel is first paid the idle
// cycles it slept through.
func (s *System) coreEdge() {
	cc := s.sched.Cycles(timing.DomainCore)
	due := s.wheelSlot(cc)
	for wi, w := range due {
		s.awake[wi] |= w
		due[wi] = 0
	}
	for wi, w := range s.awake {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			c := s.cores[i]
			if k := cc - 1 - s.coreCred[i]; k > 0 {
				c.SkipAhead(k)
			}
			c.Tick()
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
// MCs in ejection order, paying and waking each receiver before its delivery
// lands, then settles every core that took a fill. Receivers share no state
// and the pool zeroes every packet it hands out, so only each receiver's own
// order matters, and the network keeps that.
func (s *System) drainDeliveries(ic uint64) {
	nc := len(s.cores)
	for _, pkt := range s.net.Delivered() {
		if i := s.slotOf[pkt.Dst]; i < nc {
			if pkt.Class != noc.ClassReply {
				panic(fmt.Sprintf("core: compute node %d received non-reply packet %d", pkt.Dst, pkt.ID))
			}
			s.wakeCore(i)
			s.cores[i].DeliverFill(addr.Address(pkt.Line))
			s.filled.set(i)
		} else {
			j := i - nc
			if n := ic - s.icntCred[j]; n > 0 {
				s.mcs[j].SkipIcnt(n)
				s.icntCred[j] = ic
			}
			s.icntWake[j] = 0 // a queued request means work on the next edge
			s.mcs[j].AcceptRequest(pkt)
		}
		s.pool.Put(pkt)
	}
	for wi, w := range s.filled {
		s.filled[wi] = 0
		for ; w != 0; w &= w - 1 {
			s.settleCore(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}
