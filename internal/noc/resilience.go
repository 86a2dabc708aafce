package noc

import (
	"fmt"

	"repro/internal/fault"
)

// xfer tracks one logical end-to-end transfer across its transmission
// attempts. The first wire packet's ID doubles as the logical id.
type xfer struct {
	pkt       *Packet // original packet: the clone template
	attempts  int     // wire packets injected so far (1 = original)
	inFlight  int     // wire packets currently queued or in the network
	delivered bool    // an uncorrupted copy reached the destination
	nextRetx  uint64  // cycle the retransmission timeout fires
}

// faultState is the per-mesh fault-injection and recovery machinery:
// the injector (private RNG stream), the end-to-end retransmission table,
// and the bookkeeping the watchdog and Quiet() need. It exists only when
// cfg.Fault.Rate > 0, so the zero-fault fast path stays untouched.
type faultState struct {
	cfg     fault.Config
	inj     *fault.Injector
	xfers   map[uint64]*xfer
	order   []uint64 // lids in injection order, for deterministic timeout scans
	pending int      // transfers not yet delivered

	// strikes is the link fault model's strike log: strikes[c%len] lists, in
	// send order, the packets of the flits that come off a wire at cycle c.
	// Every wire is wireLat cycles long, so the flits arriving at c were all
	// sent during cycle c-wireLat, in ascending (router, output port) order —
	// the order the channels are numbered in, which is the order a per-link
	// delivery phase would visit them. tick draws once per entry on the
	// arrival cycle, so the injector sees the sequence it would see if links
	// delivered their own flits. wireLat+1 slots: the one being filled is
	// never the one being drawn.
	strikes [][]*Packet
}

func newFaultState(cfg fault.Config, wireLat uint64) *faultState {
	return &faultState{
		cfg:     cfg,
		inj:     fault.NewInjector(cfg),
		xfers:   make(map[uint64]*xfer),
		strikes: make([][]*Packet, wireLat+1),
	}
}

// noteSend logs a flit of pkt sent on a link, to be struck (or spared) when
// it arrives at cycle at.
func (fs *faultState) noteSend(pkt *Packet, at uint64) {
	slot := &fs.strikes[at%uint64(len(fs.strikes))]
	*slot = append(*slot, pkt)
}

// onInject registers a fresh logical transfer for packet p (already queued
// at its source NI with wire ID assigned).
func (fs *faultState) onInject(n *meshNet, p *Packet) {
	p.lid = p.ID
	p.attempt = 1
	fs.xfers[p.lid] = &xfer{
		pkt:      p,
		attempts: 1,
		inFlight: 1,
		nextRetx: fs.cfg.RetxDeadline(n.cycle, 1),
	}
	fs.order = append(fs.order, p.lid)
	fs.pending++
}

// tick drives the cycle-granular fault machinery: places stuck-VC faults,
// fires due retransmission timeouts and strikes the flits arriving on links
// this cycle. Runs at the top of meshNet.Tick, so re-injected packets compete
// for injection bandwidth this cycle.
func (fs *faultState) tick(n *meshNet) {
	// Transient stuck-at fault on a random input VC's switch allocation.
	if fs.inj.StickVC() {
		r := n.routers[fs.inj.Pick(len(n.routers))]
		port := fs.inj.Pick(r.nIn)
		vc := fs.inj.Pick(r.p.numVCs)
		until := n.cycle + fault.StuckCycles
		if idx := r.inIdx(port, vc); r.stuck[idx] < until {
			r.stuck[idx] = until
		}
		n.stats.StuckVCFaults++
	}

	// Timeout-driven retransmission with bounded exponential backoff.
	kept := fs.order[:0]
	for _, lid := range fs.order {
		x, ok := fs.xfers[lid]
		if !ok {
			continue
		}
		kept = append(kept, lid)
		if x.delivered || n.cycle < x.nextRetx {
			continue
		}
		if !fs.reinject(n, x) {
			x.nextRetx = n.cycle + 1 // source queue full; retry next cycle
		}
	}
	fs.order = kept

	// Link faults on this cycle's arrivals. A corrupted flit keeps flowing
	// (credit flow control acknowledges it), so network invariants hold; the
	// damage surfaces at the ejection NI's end-to-end check.
	slot := &fs.strikes[n.cycle%uint64(len(fs.strikes))]
	for _, pkt := range *slot {
		if fs.inj.CorruptFlit() {
			pkt.corrupt = true
			n.stats.CorruptFlits++
		}
	}
	*slot = (*slot)[:0]
}

// reinject clones the transfer's packet and offers it at the source NI.
// The clone keeps the logical id, payload and original offer time (so
// TotalLatency spans the whole recovery), but gets a fresh wire ID, route
// plan and hop budget.
func (fs *faultState) reinject(n *meshNet, x *xfer) bool {
	orig := x.pkt
	if !n.CanInject(orig.Src, orig.Class) {
		return false
	}
	clone := &Packet{
		Src:       orig.Src,
		Dst:       orig.Dst,
		Class:     orig.Class,
		Bytes:     orig.Bytes,
		Line:      orig.Line,
		Write:     orig.Write,
		OfferedAt: orig.OfferedAt,
		lid:       orig.lid,
	}
	yx, inter, err := n.backend.PlanRoute(clone.Src, clone.Dst, &n.rng, n.interScratch)
	if err != nil {
		panic(err) // the original routed; a replan cannot fail
	}
	clone.YXPhase, clone.Intermediate = yx, inter
	clone.ID = n.nextPkt
	n.nextPkt++
	x.attempts++
	x.inFlight++
	clone.attempt = x.attempts
	x.nextRetx = fs.cfg.RetxDeadline(n.cycle, x.attempts)
	n.nis[clone.Src].enqueue(clone)
	n.active++
	n.stats.Retransmits++
	return true
}

// onAssembled is the end-to-end check at the ejection NI: it decides
// whether the assembled wire packet is delivered to the caller, dropped as
// corrupt (to be recovered by timeout), or discarded as a duplicate of an
// already-delivered transfer. Every wire packet has its transfer's entry:
// TryInject registers each transfer, retransmitted clones share its lid, and
// the entry is deleted only once it is delivered with no copy in flight.
func (fs *faultState) onAssembled(n *meshNet, pkt *Packet) (deliver bool) {
	x := fs.xfers[pkt.lid]
	x.inFlight--
	switch {
	case pkt.corrupt:
		n.stats.DroppedPackets++
	case x.delivered:
		// a late copy of a delivered transfer: discarded
	default:
		x.delivered = true
		fs.pending--
		n.stats.RetriesPerPacket.Add(x.attempts - 1)
		deliver = true
	}
	if x.delivered && x.inFlight == 0 {
		delete(fs.xfers, pkt.lid)
	}
	return deliver
}

// delayCredit applies the credit-loss draw to one credit transfer and
// returns the extra delay: a lost credit is recovered by the upstream
// resync protocol after CreditResyncCycles.
func (fs *faultState) delayCredit(n *meshNet) uint64 {
	if fs.inj.LoseCredit() {
		n.stats.LostCredits++
		return fs.cfg.CreditResyncCycles
	}
	return 0
}

// Health returns the sticky watchdog verdict: nil while the network is
// sound, a *fault.HangError (deadlock or conservation violation)
// once the monitor has tripped.
func (n *meshNet) Health() error {
	if n.health == nil {
		return nil
	}
	return n.health
}

// Diagnostics returns the structured dump behind a non-nil Health verdict.
func (n *meshNet) Diagnostics() *fault.Diagnostic {
	if n.health == nil {
		return nil
	}
	return n.health.Diag
}

// inFlightTotal counts work that should eventually cause movement: wire
// packets (queued or in-network) plus transfers awaiting a retransmission
// timeout.
func (n *meshNet) inFlightTotal() int {
	t := n.active
	if n.fs != nil {
		t += n.fs.pending
	}
	return t
}

// observeHealth runs the cycle-driven monitors: deadlock watchdog and the
// periodic flit-conservation audit. The first trip wins and sticks.
func (n *meshNet) observeHealth() {
	if n.wd.Window == 0 || n.health != nil {
		return
	}
	if n.wd.Observe(n.cycle, n.moveCount, n.inFlightTotal()) {
		n.health = fault.Hang(fault.ErrDeadlock, n.diagnose("deadlock"))
		return
	}
	if n.auditEvery > 0 && n.cycle%n.auditEvery == 0 {
		if err := n.CheckFlitConservation(); err != nil {
			d := n.diagnose("invariant")
			d.Notes = append(d.Notes, err.Error())
			n.health = fault.Hang(fault.ErrInvariant, d)
		}
	}
}

// inNetworkFlits counts every flit currently in the mesh: input VC buffers
// (which hold the flits on the wires too) and the ejection FIFO.
func (n *meshNet) inNetworkFlits() uint64 {
	total := uint64(n.ejq.Len())
	for _, r := range n.routers {
		for i := range r.inputs {
			total += uint64(r.inputs[i].buf.Len())
		}
	}
	return total
}

// CheckFlitConservation audits the invariant
//
//	injected flits == flits in the network + ejected flits
//
// With the end-to-end fault model no flit is destroyed mid-network
// (corrupted flits still traverse and eject), so any imbalance is a
// simulator bug or an unmodeled loss. Returns nil when the books balance.
func (n *meshNet) CheckFlitConservation() error {
	var injected, ejected uint64
	for _, v := range n.stats.InjectedFlits {
		injected += v
	}
	for _, v := range n.stats.EjectedFlits {
		ejected += v
	}
	return fault.CheckConservation(injected, n.inNetworkFlits(), ejected)
}

// vcStateName renders an input VC lifecycle state for diagnostics.
func vcStateName(s vcState) string {
	switch s {
	case vcIdle:
		return "idle"
	case vcWaitVA:
		return "vc-alloc"
	case vcActive:
		return "active"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// diagnose snapshots the network for a structured hang report: every
// occupied input VC (counting the flits that have arrived, not those still on
// the wire towards it) with its head packet, why it is blocked, plus source
// queue and retransmission bookkeeping.
func (n *meshNet) diagnose(kind string) *fault.Diagnostic {
	d := &fault.Diagnostic{
		Kind:     kind,
		Cycle:    n.cycle,
		InFlight: n.inFlightTotal(),
	}
	if n.wd.Window > 0 {
		d.LastMove = n.wd.LastMovement()
	}
	for _, r := range n.routers {
		for i := range r.inputs {
			ivc := &r.inputs[i]
			if ivc.nextAt > n.cycle {
				continue // empty, or every flit still on the wire
			}
			occupancy := 0
			for occupancy < ivc.buf.Len() && ivc.buf.At(occupancy).arrived <= n.cycle {
				occupancy++
			}
			head := *ivc.buf.Front()
			age := n.cycle - head.Pkt.OfferedAt
			if age > d.OldestPkt {
				d.OldestPkt = age
			}
			dump := fault.VCDump{
				Node:      int(r.p.node),
				Port:      ivc.port,
				VC:        ivc.vc,
				Occupancy: occupancy,
				State:     vcStateName(ivc.state),
				PktID:     head.Pkt.ID,
				PktAge:    age,
				Hops:      head.Pkt.hops,
			}
			switch {
			case r.stuck[i] > n.cycle:
				dump.Blocked = fmt.Sprintf("stuck-VC fault until cycle %d", r.stuck[i])
			case ivc.state == vcActive && !r.outputReady(ivc, n.cycle):
				dump.Blocked = fmt.Sprintf("no credit for out port %d vc %d", ivc.outPort, ivc.outVC)
			case ivc.state == vcWaitVA:
				dump.Blocked = fmt.Sprintf("waiting for an output VC on port %d", ivc.outPort)
			}
			d.VCs = append(d.VCs, dump)
		}
	}
	queued := 0
	for _, ni := range n.nis {
		for c := range ni.srcQ {
			queued += ni.srcQ[c].Len()
		}
	}
	d.Notes = append(d.Notes, fmt.Sprintf(
		"%d wire packets active, %d queued at sources, %d flits in network",
		n.active, queued, n.inNetworkFlits()))
	if n.fs != nil {
		d.Notes = append(d.Notes, fmt.Sprintf(
			"%d transfers pending end-to-end, %d retransmits, %d corrupt flits, %d lost credits",
			n.fs.pending, n.stats.Retransmits, n.stats.CorruptFlits, n.stats.LostCredits))
	}
	return d
}
