package noc

import (
	"math/bits"

	"repro/internal/ring"
)

// injWriter streams one packet's flits into an injection buffer VC. Flits
// are synthesized on the fly from (pkt, next) rather than materialized as a
// slice, so starting a packet allocates nothing. A writer with pkt == nil
// is free.
type injWriter struct {
	pkt   *Packet
	next  int // next flit sequence to write
	total int // flit count of pkt
	vc    int
}

// netIface is the per-node network interface: bounded source queues feeding
// the router's injection port(s), and packet reassembly on the ejection
// side. Each injection port writes at most one flit per cycle, so a 2-port
// MC router has twice the terminal injection bandwidth (§IV-D). writers is
// flat over port*numVCs+vc, and writing has the same bit set while that
// writer holds a packet: each injection port's numVCs-bit window is its mask
// of busy writers, which continueWrite walks and pickInjVC takes out of the
// packet's allowed VCs. The injection VCs are router input VCs, so all
// windows fit one word.
type netIface struct {
	node    NodeID
	rtr     *router
	net     *meshNet
	srcQ    [NumClasses]ring.Ring[*Packet]
	writers []injWriter // [port*numVCs+vc]
	writing uint64      // bit port*numVCs+vc: writers[port*numVCs+vc].pkt != nil
	pend    int         // queued packets + in-progress writers; injectStep is a no-op at 0
	classRR int
}

// init builds ni in place for node, carving its writers (rtr.p.nInj*numVCs)
// and its source-queue buffers (NumClasses*SrcQueueCap) from the network's
// slabs.
func (ni *netIface) init(node NodeID, rtr *router, net *meshNet, writers *[]injWriter, queued *[]*Packet) {
	*ni = netIface{node: node, rtr: rtr, net: net}
	for c := range ni.srcQ {
		ni.srcQ[c] = ring.Over(carve(queued, net.cfg.SrcQueueCap), net.cfg.SrcQueueCap)
	}
	ni.writers = carve(writers, rtr.p.nInj*rtr.p.numVCs)
}

// enqueue appends p to its class's source queue and marks the interface
// active. The caller has already checked CanInject.
func (ni *netIface) enqueue(p *Packet) {
	ni.srcQ[p.Class].Push(p)
	ni.pend++
	ni.net.injActive.set(int(ni.node))
}

// injectStep advances injection by up to one flit per port.
func (ni *netIface) injectStep(cycle uint64) {
	for port, nInj := 0, ni.rtr.p.nInj; port < nInj; port++ {
		if ni.continueWrite(port, cycle) {
			continue
		}
		ni.startWrite(port, cycle)
	}
}

// portWriting returns port's window of the writing mask.
func (ni *netIface) portWriting(port int) uint64 {
	n := uint(ni.rtr.p.numVCs)
	return ni.writing >> (uint(port) * n) & (uint64(1)<<n - 1)
}

// continueWrite pushes the next flit of the lowest-VC in-progress packet on
// port that has buffer space, returning whether a flit was written.
func (ni *netIface) continueWrite(port int, cycle uint64) bool {
	for m := ni.portWriting(port); m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		if ni.rtr.injSpace(port, v) == 0 {
			continue
		}
		ni.writeFlit(port, &ni.writers[port*ni.rtr.p.numVCs+v], cycle)
		return true
	}
	return false
}

// startWrite begins injecting the next queued packet on port, if any class
// has a packet whose VC set offers a free writer slot with buffer space.
func (ni *netIface) startWrite(port int, cycle uint64) {
	class := TrafficClass(ni.classRR)
	for k := 0; k < int(NumClasses); k, class = k+1, class+1 {
		if class == NumClasses {
			class = 0
		}
		q := &ni.srcQ[class]
		if q.Len() == 0 {
			continue
		}
		pkt := *q.Front()
		vc := ni.pickInjVC(port, pkt)
		if vc < 0 {
			continue
		}
		q.Pop() // the packet stays counted in pend until its writer finishes
		if ni.classRR = int(class) + 1; ni.classRR == int(NumClasses) {
			ni.classRR = 0
		}
		pkt.InjectedAt = cycle
		pkt.flits = int32(ni.net.flitsFor(pkt.Bytes))
		pkt.ejected = 0
		ni.net.stats.InjectedPackets[ni.node]++
		ni.net.stats.InjectedBytes += uint64(pkt.Bytes)
		i := port*ni.rtr.p.numVCs + vc
		w := &ni.writers[i]
		*w = injWriter{pkt: pkt, total: int(pkt.flits), vc: vc}
		ni.writing |= 1 << uint(i)
		ni.writeFlit(port, w, cycle)
		return
	}
}

// pickInjVC returns the lowest VC of the packet's allowed mask with no
// in-progress writer on this port and at least one free buffer slot, or -1.
func (ni *netIface) pickInjVC(port int, pkt *Packet) int {
	for m := ni.net.vcs.allowed(pkt.Class, pkt.YXPhase) &^ ni.portWriting(port); m != 0; m &= m - 1 {
		if v := bits.TrailingZeros64(m); ni.rtr.injSpace(port, v) > 0 {
			return v
		}
	}
	return -1
}

func (ni *netIface) writeFlit(port int, w *injWriter, cycle uint64) {
	f := Flit{
		Pkt:  w.pkt,
		Seq:  int32(w.next),
		Head: w.next == 0,
		Tail: w.next == w.total-1,
		VC:   int16(w.vc),
	}
	ni.rtr.injectFlit(port, f, cycle)
	w.next++
	ni.net.stats.InjectedFlits[ni.node]++
	ni.net.moveCount++
	if w.next == w.total {
		w.pkt = nil
		ni.writing &^= 1 << uint(port*ni.rtr.p.numVCs+w.vc)
		ni.pend--
	}
}

// ejFlit is a flit on an ejection link: its packet, the cycle it reaches
// the NI, and the node it left.
type ejFlit struct {
	pkt  *Packet
	at   uint64
	node int32
}

// eject takes one flit of pkt off the ejection link at cycle and, at the
// packet's last flit, assembles it onto the network's delivery list. Flits
// of one packet arrive in order, but packets on different VCs may
// interleave, so the count lives on the packet. Latencies are whole cycles,
// so their float sum is exact (below 2^53) in any assembly order.
func (ni *netIface) eject(pkt *Packet, cycle uint64) {
	n := ni.net
	n.stats.EjectedFlits[ni.node]++
	n.moveCount++
	if pkt.ejected++; pkt.ejected < pkt.flits {
		return
	}
	pkt.ArrivedAt = cycle
	n.active--
	if n.fs != nil && !n.fs.onAssembled(n, pkt) {
		return // failed the end-to-end check: corrupt, duplicate or lost
	}
	n.deliv = append(n.deliv, pkt)
	n.stats.NetLatency.Add(float64(pkt.NetworkLatency()))
}
