package noc

import "repro/internal/ring"

// channel is a unidirectional link between two routers. It holds no flits:
// send deposits the flit straight into the downstream input VC, stamped with
// the cycle it comes off the wire (Flit.arrived), and the downstream router
// ignores it until that cycle (see router.acceptFlit and arrMask). The slot
// is already reserved — the sender spent a credit on it — so wire occupancy
// plus buffered flits never exceed the buffer depth.
type channel struct {
	dst     *router
	dstPort int // input port index at dst
}

// send puts f on the wire at cycle; f.arrived already holds the cycle it
// lands. Each send is the link fault model's strike point, drawn on the
// arrival cycle (see faultState.strikes): a corrupted flit still occupies its
// buffer slot and flows on (flow control acknowledges it), but poisons its
// packet for the end-to-end check at the ejection interface.
func (c *channel) send(f Flit, cycle uint64) {
	if fs := c.dst.net.fs; fs != nil {
		fs.noteSend(f.Pkt, f.arrived)
	}
	c.dst.acceptFlit(c.dstPort, f, cycle)
}

// creditEvent returns one buffer slot to the upstream router's output unit.
type creditEvent struct {
	vc  int
	due uint64
}

// creditChannel carries credits back along a link: dst is the upstream
// router and dstPort its output port feeding the link. Credit conservation
// bounds the in-flight credits per VC by the buffer depth, so the ring is
// hard-bounded at numVCs*bufDepth. Nothing delivers credits on a schedule:
// only dst's own step reads its credit counters, so dst pulls what is due at
// the top of its step (router.pullCredits) and a credit waiting at an idle
// router costs nothing.
type creditChannel struct {
	dst     *router
	dstPort int
	q       ring.Ring[creditEvent]
}

// send queues one credit at the upstream router and flags the port for its
// next pull. A credit-loss fault delays it by the resync window instead of
// destroying it, so credit conservation holds at quiescence and the
// invariant checks stay valid.
func (c *creditChannel) send(vc int, due uint64) {
	if fs := c.dst.net.fs; fs != nil {
		due += fs.delayCredit(c.dst.net)
	}
	c.q.Push(creditEvent{vc: vc, due: due})
	c.dst.credPend |= 1 << uint(c.dstPort)
}

// deliver returns all due credits. Resync-delayed credits make due values
// non-monotonic, so the whole queue is scanned, compacting the not-yet-due
// remainder in place; credits on one VC are fungible, and the scan order is
// the deterministic send order.
func (c *creditChannel) deliver(cycle uint64) {
	kept := 0
	n := c.q.Len()
	for i := 0; i < n; i++ {
		ev := *c.q.At(i)
		if ev.due <= cycle {
			c.dst.acceptCredit(c.dstPort, ev.vc)
		} else {
			*c.q.At(kept) = ev
			kept++
		}
	}
	c.q.Truncate(kept)
}
