package noc

import (
	"runtime/pprof"
	"strconv"

	"repro/internal/ring"
)

// The sharded cycle kernel partitions the network into the backend's
// contiguous bands — column bands on the mesh and basejump backends, arc
// segments on the ring — and runs each band's NI/router phases on
// its own worker goroutine, with a serial epilogue at the cycle boundary.
// Determinism is the design constraint: a sharded run must be bit-identical
// to the serial kernel. The scheme rests on three structural facts:
//
//  1. Single writer per channel. Every flit channel and credit channel has
//     exactly one sending router, which sends at most one event per cycle
//     (one switch-allocation grant per output port; one credit per input
//     port). A sent flit lands in the DESTINATION router's input VC and a
//     sent credit in that router's return queue, both owned by the
//     destination's shard, which is the only code that consumes them.
//  2. Bands only share boundary links. On the mesh, north/south channels
//     stay inside a column band, so cross-shard traffic is exactly the E/W
//     links that straddle a band edge; on the ring, it is the pair of links
//     at each arc boundary. A cross-shard send is buffered in the sending
//     shard's outgoing mailbox ring instead of touching the foreign router;
//     the serial epilogue deposits the mailboxes into the owning buffers and
//     queues in shard order. Every sent flit or credit is stamped no earlier
//     than the next cycle, so moving the hand-off from "during the cycle"
//     to "end of the cycle" is invisible to the simulation.
//  3. Order-sensitive global state is deferred and replayed. Float latency
//     accumulators (stats.Mean sums depend on addition order), the livelock
//     verdict (first trip wins) and scalar counters are recorded per shard
//     during the parallel segment and merged in the epilogue in the exact
//     order the serial kernel would have produced.
//
// During the parallel segment shards touch disjoint state only, so one
// dispatch and one join per cycle suffice — there is no mid-cycle barrier
// to amortize, and idle-shard workers park on the executor channel.

// latSample is one delivered packet's deferred latency observation. Samples
// are replayed into the stats.Mean accumulators in ascending node order
// (the serial ejection-phase order), keeping float sums bit-identical.
type latSample struct {
	node  NodeID
	net   float64
	tot   float64
	class TrafficClass
}

// flitMail is a cross-shard flit send parked in the source shard's mailbox.
type flitMail struct {
	ch   *channel
	flit Flit
}

// credMail is a cross-shard credit send parked in the source shard's mailbox.
type credMail struct {
	cc *creditChannel
	ev creditEvent
}

// meshShard is one column band of the mesh: the per-phase active bitsets for
// the components it owns, outgoing boundary mailboxes, and the deferred
// fragments of global state its segment produces each cycle. Active sets are
// indexed over the GLOBAL component index space but only ever hold bits for
// owned components, so no bitset word is shared between shards.
type meshShard struct {
	idx int
	net *meshNet

	// Per-phase active work lists (see the activeSet comment in network.go);
	// the per-shard split is what lets segments run without locks.
	injActive activeSet
	rtrActive activeSet
	ejActive  activeSet

	// delivSet holds the owned nodes whose Delivered batch is non-empty: the
	// ejection NI sets a bit when it appends a packet, Delivered clears it.
	delivSet activeSet

	// Outgoing boundary mailboxes, drained by the serial epilogue. Hard
	// bounds: each boundary channel carries at most one event per cycle
	// (one SA grant per output port, one credit per input port), so the
	// rings are sized to the shard's boundary channel counts and a push
	// past the bound is a protocol bug, not backpressure.
	outFlit ring.Ring[flitMail]
	outCred ring.Ring[credMail]

	// Deferred integer counters, merged (summed) in the epilogue.
	flitHops  uint64
	moves     uint64
	assembled int // packets fully assembled this cycle (decrements net.active)

	// credDue is the due cycle of the last credit a router of this shard
	// sent; with no faults dues only grow, so it tells NextWorkCycle whether
	// a credit is still on its way back.
	credDue uint64

	// Deferred order-sensitive float samples, replayed node-ascending.
	samples   []latSample
	samplePos int

	// Deferred livelock verdict: the shard's first over-budget packet. The
	// epilogue picks the minimum router node across shards, matching the
	// serial kernel's first-trip-wins order.
	llPkt  *Packet
	llNode NodeID

	task shardTask
}

// shardOf maps a node to its owning shard via the backend's partition
// (mesh/basejump: column bands; ring: arc segments).
func (n *meshNet) shardOf(node NodeID) *meshShard {
	return n.shards[n.backend.ShardOf(node, len(n.shards))]
}

// buildShards partitions the network into the backend's contiguous bands and
// assigns component ownership. requested is clamped to [1, MaxShards]; fault
// injection forces one shard because the injector's single RNG stream draws
// during flit/credit sends and deliveries, whose interleaving across shards
// is not defined.
func (n *meshNet) buildShards(requested int) {
	s := requested
	if s < 1 {
		s = 1
	}
	if max := n.backend.MaxShards(); s > max {
		s = max
	}
	if n.fs != nil {
		s = 1
	}
	n.shards = make([]*meshShard, s)
	for k := range n.shards {
		sh := &meshShard{
			idx:       k,
			net:       n,
			injActive: newActiveSet(len(n.nis)),
			rtrActive: newActiveSet(len(n.routers)),
			ejActive:  newActiveSet(len(n.routers)),
			delivSet:  newActiveSet(len(n.nis)),
		}
		sh.task = shardTask{
			wg:     &n.tickWG,
			labels: pprof.Labels("noc_shard", strconv.Itoa(k)),
		}
		sh.task.run = func() { sh.runSegment(n.cycle) }
		n.shards[k] = sh
	}
	for _, r := range n.routers {
		r.sh = n.shardOf(r.p.node)
	}
	// A channel whose source router lives in another shard than its
	// destination routes its sends through the source shard's outgoing
	// mailbox.
	nbf := make([]int, s)
	nbc := make([]int, s)
	for _, ch := range n.flitChans {
		src, dst := n.shardOf(ch.src), ch.dst.sh
		if src != dst {
			ch.xmail = &src.outFlit
			nbf[src.idx]++
		}
	}
	for _, cc := range n.credChans {
		src, dst := n.shardOf(cc.src), cc.dst.sh
		if src != dst {
			cc.xmail = &src.outCred
			nbc[src.idx]++
		}
	}
	for k, sh := range n.shards {
		if nbf[k] > 0 {
			sh.outFlit = ring.New[flitMail](nbf[k], nbf[k])
		}
		if nbc[k] > 0 {
			sh.outCred = ring.New[credMail](nbc[k], nbc[k])
		}
	}
}

// runSegment is one shard's slice of a cycle: the three phases (inject,
// route, eject) over the shard's own active components, in ascending index
// order (the serial kernel's order restricted to this band). Links are not a
// phase: a router's sends land in the neighbour's buffers directly. It
// touches only shard-owned state plus this shard's outgoing mailboxes.
func (sh *meshShard) runSegment(cycle uint64) {
	n := sh.net
	sh.injActive.forEach(func(i int) {
		ni := n.nis[i]
		ni.injectStep(cycle)
		if ni.pend == 0 {
			sh.injActive.clear(i)
		}
	})
	sh.rtrActive.forEach(func(i int) {
		r := n.routers[i]
		r.step(cycle)
		if !r.busy() {
			sh.rtrActive.clear(i)
		}
	})
	sh.ejActive.forEach(func(i int) {
		n.nis[i].ejectStep(cycle)
		if n.routers[i].ejCount == 0 {
			sh.ejActive.clear(i)
		}
	})
}

// noteHop charges one switch traversal to pkt and records the shard's first
// hop-budget violation for the epilogue's livelock resolution. n.health is
// only written in serial sections, so the read here is race-free.
func (sh *meshShard) noteHop(pkt *Packet, node NodeID) {
	pkt.hops++
	n := sh.net
	if n.wd == nil || n.health != nil || n.hopBudget <= 0 ||
		pkt.hops <= n.hopBudget || sh.llPkt != nil {
		return
	}
	sh.llPkt, sh.llNode = pkt, node
}

// epilogue is the serial tail of a cycle: it deposits the boundary mailboxes
// into their owning input VCs and credit queues, merges the shards' deferred
// counters and samples in serial-kernel order, resolves the livelock verdict,
// and runs the end-of-cycle health monitors. Mailboxes drain here — not at
// the top of the next cycle — so the conservation audit sees boundary flits
// in their buffers; every mailed flit or credit is stamped next cycle at the
// earliest, so the owning shard acts on it at the same cycle the serial
// kernel would have.
func (n *meshNet) epilogue() {
	for _, sh := range n.shards {
		for sh.outFlit.Len() > 0 {
			m := sh.outFlit.Pop()
			m.ch.dst.acceptFlit(m.ch.dstPort, m.flit, n.cycle)
		}
		for sh.outCred.Len() > 0 {
			m := sh.outCred.Pop()
			m.cc.post(m.ev)
		}
		n.stats.FlitHops += sh.flitHops
		n.moveCount += sh.moves
		n.active -= sh.assembled
		sh.flitHops, sh.moves, sh.assembled = 0, 0, 0
	}
	n.applySamples()
	n.resolveLivelock()
	n.stats.Cycles++
	n.observeHealth()
}

// applySamples replays the shards' deferred latency samples into the float
// accumulators in ascending node order — a k-way merge over the per-shard
// buffers, each already node-sorted because a segment ejects in ascending
// node order and every node belongs to exactly one shard. This reproduces
// the serial kernel's Mean.Add sequence exactly, which is what keeps the
// float sums (and so the golden digests) bit-identical.
func (n *meshNet) applySamples() {
	if len(n.shards) == 1 {
		sh := n.shards[0]
		for i := range sh.samples {
			n.addSample(&sh.samples[i])
		}
		sh.samples = sh.samples[:0]
		return
	}
	for {
		var best *meshShard
		for _, sh := range n.shards {
			if sh.samplePos == len(sh.samples) {
				continue
			}
			if best == nil || sh.samples[sh.samplePos].node < best.samples[best.samplePos].node {
				best = sh
			}
		}
		if best == nil {
			break
		}
		node := best.samples[best.samplePos].node
		for best.samplePos < len(best.samples) && best.samples[best.samplePos].node == node {
			n.addSample(&best.samples[best.samplePos])
			best.samplePos++
		}
	}
	for _, sh := range n.shards {
		sh.samples = sh.samples[:0]
		sh.samplePos = 0
	}
}

func (n *meshNet) addSample(s *latSample) {
	n.stats.NetLatency.Add(s.net)
	n.stats.TotalLatency.Add(s.tot)
	n.stats.LatencyByClass[s.class].Add(s.net)
}

// resolveLivelock turns the shards' deferred hop-budget violations into the
// sticky health verdict. The minimum router node wins, matching the serial
// kernel's ascending-order first trip.
func (n *meshNet) resolveLivelock() {
	var best *meshShard
	for _, sh := range n.shards {
		if sh.llPkt == nil {
			continue
		}
		if best == nil || sh.llNode < best.llNode {
			best = sh
		}
	}
	if best == nil {
		return
	}
	if n.wd != nil && n.health == nil {
		n.tripLivelock(best.llPkt)
	}
	for _, sh := range n.shards {
		sh.llPkt = nil
	}
}
