package noc

import (
	"fmt"

	"repro/internal/ring"
)

// creditEvent is one lost credit on its way back to the upstream router.
type creditEvent struct {
	vc  int
	due uint64
}

// creditChannel carries lost credits back along a link: dst is the upstream
// router and dstPort its output port feeding the link. It exists only when
// faults are enabled; every other credit is derived (router.freeSlots). A
// lost credit is withheld from the pop until its due cycle (inVC.withheld on
// the downstream VC, which dst reads through its downVCs window), so at most
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
	c.dst.downVCs[c.dstPort][vc].withheld++
	c.q.Push(creditEvent{vc: vc, due: due})
	c.dst.credPend |= 1 << uint(c.dstPort)
}

// deliver returns the due credits to service, front first.
func (c *creditChannel) deliver(cycle uint64) {
	for c.q.Len() > 0 && c.q.Front().due <= cycle {
		ev := c.q.Pop()
		down := &c.dst.downVCs[c.dstPort][ev.vc]
		if down.withheld--; down.withheld < 0 {
			panic(fmt.Sprintf("noc: router %d port %d vc %d credit overflow", c.dst.p.node, c.dstPort, ev.vc))
		}
	}
}
