package noc

import (
	"fmt"

	"repro/internal/ring"
)

// channel is a unidirectional link between two routers. It holds no flits:
// the upstream router's traverse deposits a sent flit straight into the
// downstream input VC, stamped with the cycle it comes off the wire
// (Flit.arrived), and the downstream router ignores it until that cycle (see
// router.acceptFlit and arrMask). The slot is already reserved — the sender
// saw it free (router.freeSlots counts the flits on the wire) — so wire
// occupancy plus buffered flits never exceed the buffer depth. A flit struck
// by a link fault still occupies its slot and flows on (flow control
// acknowledges it), but poisons its packet for the end-to-end check at the
// ejection interface.
type channel struct {
	dst     *router
	dstPort int // input port index at dst
}

// creditEvent is one lost credit on its way back to the upstream router.
type creditEvent struct {
	vc  int
	due uint64
}

// creditChannel carries lost credits back along a link: dst is the upstream
// router and dstPort its output port feeding the link. It exists only when
// faults are enabled; every other credit is derived (router.freeSlots). A
// lost credit is withheld at dst from the pop until its due cycle, so at most
// numVCs*bufDepth are queued, and every one is delayed by the same resync
// window, so dues are in send order. Nothing delivers them on a schedule:
// only dst's own step reads its free slots, so dst pulls what is due at the
// top of its step (router.pullCredits) and a credit waiting at an idle router
// costs nothing.
type creditChannel struct {
	dst     *router
	dstPort int
	q       ring.Ring[creditEvent]
}

// withhold takes one slot of dst's output (dstPort, vc) out of service until
// due, and flags the port for dst's next pull.
func (c *creditChannel) withhold(vc int, due uint64) {
	c.dst.outputs[c.dst.inIdx(c.dstPort, vc)].withheld++
	c.q.Push(creditEvent{vc: vc, due: due})
	c.dst.credPend |= 1 << uint(c.dstPort)
}

// deliver returns the due credits to service, front first.
func (c *creditChannel) deliver(cycle uint64) {
	for c.q.Len() > 0 && c.q.Front().due <= cycle {
		ev := c.q.Pop()
		o := &c.dst.outputs[c.dst.inIdx(c.dstPort, ev.vc)]
		if o.withheld--; o.withheld < 0 {
			panic(fmt.Sprintf("noc: router %d port %d vc %d credit overflow", c.dst.p.node, c.dstPort, ev.vc))
		}
	}
}
