package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/ring"
)

// maxInputVCs is the width of the per-router stage masks: one bit per input
// VC, indexed port*numVCs+vc. newMeshNet rejects configurations whose widest
// router would not fit.
const maxInputVCs = 64

// vcState is the lifecycle of an input virtual channel.
type vcState int

const (
	vcIdle   vcState = iota // no packet, or next head not yet route-computed
	vcWaitVA                // route computed, waiting for an output VC
	vcActive                // output VC held, flits compete in switch allocation
)

// inVC is one input virtual channel: a flit FIFO plus allocation state.
type inVC struct {
	buf     ring.Ring[Flit]
	state   vcState
	port    int   // input port this VC sits on (fixed at construction)
	vc      int   // VC number within the port (fixed at construction)
	outPort int   // granted output port (valid from vcWaitVA on)
	outVC   int   // granted output VC (valid in vcActive)
	allowed []int // output VCs this packet may use at this hop
	readyAt uint64
}

// outVC is the book-keeping for one (output port, VC) pair.
type outVC struct {
	credits int // free buffer slots at the downstream input VC
	owner   int // input index holding this VC, or -1 when free
}

// pipeDelays maps a router pipeline depth to stage delays. The uncontended
// per-hop latency is rc+va+st+channelLatency, so the paper's 4-stage router
// with 1-cycle channels costs 5 cycles per hop, and the aggressive 1-cycle
// router costs 2.
func pipeDelays(stages int) (rc, va, st uint64) {
	switch {
	case stages <= 1:
		return 0, 0, 1
	case stages == 2:
		return 0, 1, 1
	default:
		return uint64(stages) - 2, 1, 1
	}
}

// routerParams configures one router instance.
type routerParams struct {
	node     NodeID
	half     bool // half-router: no turns between dimensions (§IV-A)
	numVCs   int
	bufDepth int
	nInj     int // injection (terminal input) ports
	nEj      int // ejection (terminal output) ports
	stages   int // pipeline depth (4 baseline, 3 half, 1 aggressive)
	chanLat  uint64
	credLat  uint64
	ejCap    int // ejection queue capacity, in flits
}

// router is a VC wormhole router with separable round-robin (iSLIP-style)
// VC and switch allocation.
type router struct {
	p    routerParams
	net  *meshNet
	sh   *meshShard // owning column-band shard (assigned by buildShards)
	rcD  uint64
	vaD  uint64
	stD  uint64
	nIn  int // 4 dirs + nInj
	nOut int // 4 dirs + nEj

	// Input and output VC state, flat over port*numVCs+vc (see inIdx).
	inputs  []inVC
	outputs []outVC

	// Stage masks: bit i names input VC i and is set exactly while that VC
	// waits on the stage, so each stage walks the VCs that can move instead
	// of scanning every (port, VC).
	//
	//	rcMask: vcIdle with a buffered flit (a head awaiting route computation)
	//	vaMask: vcWaitVA
	//	saMask: vcActive
	//
	// The three are disjoint, and a VC in none of them is idle and empty.
	// Bits change only where the state they mirror changes: acceptFlit, the
	// RC and VA grants, and the tail in traverse. Stages walk set bits lowest
	// first, i.e. in ascending (port, VC) order: the order ejRR, the
	// round-robin pointers and the fault-RNG draw sequence are defined
	// against, so skipping clear bits never reorders a side effect.
	rcMask, vaMask, saMask uint64

	outChans  []*channel       // per dir output port; nil at mesh edge
	credChans []*creditChannel // per dir input port, back to upstream; nil at edge or terminal

	ejQ []ring.Ring[flitEvent] // per ejection port

	// ejCount counts flits across the ejection queues; the ejection phase
	// skips the router at 0.
	ejCount int

	// stuck[inIdx] holds the cycle until which a stuck-VC fault freezes that
	// input VC's switch allocation; nil when faults are disabled.
	stuck []uint64

	// Round-robin pointers.
	vaPtr    []int // per outPort*numVCs+outVC, over input index
	saInPtr  []int // per input port, over VCs
	saOutPtr []int // per output port, over input ports
	ejRR     int

	// Allocation scratch, reused across cycles: vaBids[key] holds the input
	// indices bidding for output VC key = outPort*numVCs+outVC and vaKeys the
	// dirty keys in discovery order; saBids[out] holds the switch bidders per
	// output port. All preallocated to their worst case, so the allocators
	// never touch the heap.
	vaBids [][]int
	vaKeys []int
	saBids [][]int
}

func newRouter(p routerParams, net *meshNet) *router {
	r := &router{p: p, net: net}
	r.rcD, r.vaD, r.stD = pipeDelays(p.stages)
	r.nIn = int(numDirs) + p.nInj
	r.nOut = int(numDirs) + p.nEj
	if r.nIn*p.numVCs > maxInputVCs {
		panic(fmt.Sprintf("noc: router %d has %d input VCs, stage masks hold %d",
			p.node, r.nIn*p.numVCs, maxInputVCs))
	}
	r.inputs = make([]inVC, r.nIn*p.numVCs)
	for i := range r.inputs {
		ivc := &r.inputs[i]
		ivc.port, ivc.vc = i/p.numVCs, i%p.numVCs
		ivc.outPort = -1
		ivc.buf = ring.New[Flit](p.bufDepth, p.bufDepth)
	}
	r.outputs = make([]outVC, r.nOut*p.numVCs)
	for o := range r.outputs {
		r.outputs[o].owner = -1
	}
	r.outChans = make([]*channel, numDirs)
	r.credChans = make([]*creditChannel, numDirs)
	r.ejQ = make([]ring.Ring[flitEvent], p.nEj)
	for e := range r.ejQ {
		r.ejQ[e] = ring.New[flitEvent](p.ejCap, p.ejCap)
	}
	r.vaPtr = make([]int, r.nOut*p.numVCs)
	r.saInPtr = make([]int, r.nIn)
	r.saOutPtr = make([]int, r.nOut)
	r.vaBids = make([][]int, r.nOut*p.numVCs)
	for i := range r.vaBids {
		r.vaBids[i] = make([]int, 0, r.nIn*p.numVCs)
	}
	r.vaKeys = make([]int, 0, r.nOut*p.numVCs)
	r.saBids = make([][]int, r.nOut)
	for i := range r.saBids {
		r.saBids[i] = make([]int, 0, r.nIn)
	}
	if net != nil && net.fs != nil {
		r.stuck = make([]uint64, r.nIn*p.numVCs)
	}
	return r
}

// inIdx flattens (port, vc) into the index shared by inputs, outputs, stuck
// and the stage masks.
func (r *router) inIdx(port, vc int) int { return port*r.p.numVCs + vc }

// busy reports whether any input VC holds work (a buffered flit or
// allocation state); step is a no-op otherwise, so the network skips the
// router.
func (r *router) busy() bool { return r.rcMask|r.vaMask|r.saMask != 0 }

// acceptFlit enqueues an arriving flit into its input VC buffer. Credit
// accounting upstream guarantees space; overflow means a protocol bug.
// A flit landing on an idle, empty VC is a head awaiting route computation:
// it joins rcMask and puts the router on the network's active list.
func (r *router) acceptFlit(port int, f Flit, cycle uint64) {
	idx := r.inIdx(port, int(f.VC))
	ivc := &r.inputs[idx]
	if ivc.buf.Full() {
		panic(fmt.Sprintf("noc: router %d port %d vc %d buffer overflow", r.p.node, port, f.VC))
	}
	f.arrived = cycle
	if ivc.buf.Len() == 0 && ivc.state == vcIdle {
		r.rcMask |= 1 << uint(idx)
		r.sh.rtrActive.set(int(r.p.node))
	}
	ivc.buf.Push(f)
}

// acceptCredit returns a buffer slot for (output port, vc).
func (r *router) acceptCredit(port, vc int) {
	o := &r.outputs[r.inIdx(port, vc)]
	o.credits++
	if o.credits > r.p.bufDepth {
		panic(fmt.Sprintf("noc: router %d port %d vc %d credit overflow", r.p.node, port, vc))
	}
}

// injSpace reports free slots in an injection port VC buffer (used by the
// network interface, which writes flits directly).
func (r *router) injSpace(injPort, vc int) int {
	return r.p.bufDepth - r.inputs[r.inIdx(int(numDirs)+injPort, vc)].buf.Len()
}

// injectFlit writes one flit into an injection buffer.
func (r *router) injectFlit(injPort int, f Flit, cycle uint64) {
	r.acceptFlit(int(numDirs)+injPort, f, cycle)
}

// legalOutput reports whether this router can forward from input port in to
// output port out. Half-routers cannot change dimension (§IV-A, Fig 13).
func (r *router) legalOutput(in, out int) bool {
	inDir := in < int(numDirs)
	outDir := out < int(numDirs)
	if !inDir || !outDir {
		return true // terminal ports connect to everything
	}
	if in == out {
		return false // no U-turns
	}
	if !r.p.half {
		return true
	}
	return Port(out) == Port(in).opposite()
}

// step runs one router cycle: route computation, VC allocation, switch
// allocation and switch traversal, each over its stage mask.
func (r *router) step(cycle uint64) {
	if r.rcMask != 0 {
		r.routeCompute(cycle)
	}
	if r.vaMask != 0 {
		r.vcAllocate(cycle)
	}
	if r.saMask != 0 {
		r.switchAllocate(cycle)
	}
}

// routeCompute processes the head flits at the front of idle VCs; every VC
// it visits moves on to VC allocation.
func (r *router) routeCompute(cycle uint64) {
	for m := r.rcMask; m != 0; m &= m - 1 {
		ivc := &r.inputs[bits.TrailingZeros64(m)]
		head := ivc.buf.Front()
		if !head.Head {
			panic(fmt.Sprintf("noc: router %d: non-head flit (pkt %d seq %d) at front of idle vc",
				r.p.node, head.Pkt.ID, head.Seq))
		}
		pkt := head.Pkt
		out, eject := r.net.backend.NextHop(r.p.node, pkt)
		outPort := int(out)
		if eject {
			outPort = int(numDirs) + r.ejRR
			r.ejRR = (r.ejRR + 1) % r.p.nEj
		}
		if !r.legalOutput(ivc.port, outPort) {
			panic(fmt.Sprintf("noc: illegal turn at router %d (half=%v): in %d -> out %d for pkt %d (%d->%d)",
				r.p.node, r.p.half, ivc.port, outPort, pkt.ID, pkt.Src, pkt.Dst))
		}
		ivc.outPort = outPort
		ivc.allowed = r.net.vcs.allowed(pkt.Class, pkt.YXPhase)
		ivc.state = vcWaitVA
		// Heads that queued behind a previous packet already overlapped
		// their buffer-write/RC stages with its drain.
		ivc.readyAt = head.arrived + r.rcD
		if ivc.readyAt < cycle {
			ivc.readyAt = cycle
		}
	}
	r.vaMask |= r.rcMask
	r.rcMask = 0
}

// vcAllocate matches waiting input VCs to free output VCs: each input VC
// bids for the first free VC in its allowed set; each contested output VC
// grants round-robin. Grants are processed in key-discovery order; they are
// independent per key (every input VC bids on exactly one key), so the
// order does not affect the outcome.
func (r *router) vcAllocate(cycle uint64) {
	n := r.p.numVCs
	for m := r.vaMask; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		ivc := &r.inputs[idx]
		if ivc.readyAt > cycle {
			continue
		}
		base := ivc.outPort * n
		for _, ov := range ivc.allowed {
			if key := base + ov; r.outputs[key].owner < 0 {
				if len(r.vaBids[key]) == 0 {
					r.vaKeys = append(r.vaKeys, key)
				}
				r.vaBids[key] = append(r.vaBids[key], idx)
				break
			}
		}
	}
	for _, key := range r.vaKeys {
		bidders := r.vaBids[key]
		winner := pickRR(bidders, &r.vaPtr[key], r.nIn*n)
		ivc := &r.inputs[winner]
		r.outputs[key].owner = winner
		ivc.outVC = key - ivc.outPort*n
		ivc.state = vcActive
		ivc.readyAt = cycle + r.vaD
		r.vaMask &^= 1 << uint(winner)
		r.saMask |= 1 << uint(winner)
		r.vaBids[key] = bidders[:0]
	}
	r.vaKeys = r.vaKeys[:0]
}

// switchAllocate picks one flit per input port and one per output port
// (input-first separable allocation) and traverses the switch. Grants run
// in output-port order: traverse draws from the fault RNG (credit-loss per
// send), so the iteration order must be deterministic for equal-seeded runs
// to stay bit-identical.
func (r *router) switchAllocate(cycle uint64) {
	n := uint(r.p.numVCs)
	window := uint64(1)<<n - 1
	for in, m := 0, r.saMask; m != 0; in, m = in+1, m>>n {
		if m&window == 0 {
			continue
		}
		if idx, ok := r.pickSAInput(in, m&window, cycle); ok {
			out := r.inputs[idx].outPort
			r.saBids[out] = append(r.saBids[out], idx)
		}
	}
	for out := 0; out < r.nOut; out++ {
		bidders := r.saBids[out]
		if len(bidders) == 0 {
			continue
		}
		r.traverse(pickRR(bidders, &r.saOutPtr[out], r.nIn*r.p.numVCs), cycle)
		r.saBids[out] = bidders[:0]
	}
}

// pickSAInput selects, round-robin, an eligible VC at input port in and
// returns its input index. active is the port's numVCs-bit window of saMask.
// Rotating the window right by the port's pointer puts VC (start+k)%n at bit
// k, so ascending bits visit the active VCs in round-robin order from start.
func (r *router) pickSAInput(in int, active uint64, cycle uint64) (int, bool) {
	n := r.p.numVCs
	start := r.saInPtr[in]
	for m := rotateWindow(active, start, n); m != 0; m &= m - 1 {
		v := start + bits.TrailingZeros64(m)
		if v >= n {
			v -= n
		}
		idx := in*n + v
		ivc := &r.inputs[idx]
		if ivc.readyAt > cycle || ivc.buf.Len() == 0 {
			continue
		}
		if r.stuck != nil && r.stuck[idx] > cycle {
			continue // transient stuck-VC fault freezes this VC's allocation
		}
		if !r.outputReady(ivc.outPort, ivc.outVC) {
			continue
		}
		r.saInPtr[in] = (v + 1) % n
		return idx, true
	}
	return 0, false
}

// rotateWindow rotates the low n bits of w right by start (0 <= start < n).
func rotateWindow(w uint64, start, n int) uint64 {
	return (w>>uint(start) | w<<uint(n-start)) & (uint64(1)<<uint(n) - 1)
}

// outputReady reports whether a flit can leave via (port, vc) this cycle:
// a downstream credit for direction ports, a queue slot for ejection ports.
func (r *router) outputReady(port, vc int) bool {
	if port < int(numDirs) {
		return r.outputs[r.inIdx(port, vc)].credits > 0
	}
	return !r.ejQ[port-int(numDirs)].Full()
}

// traverse moves the front flit of input VC idx through the switch.
func (r *router) traverse(idx int, cycle uint64) {
	ivc := &r.inputs[idx]
	f := ivc.buf.Pop()
	op, ov := ivc.outPort, ivc.outVC
	out := &r.outputs[r.inIdx(op, ov)]
	f.VC = int16(ov)
	if op < int(numDirs) {
		out.credits--
		r.outChans[op].send(f, cycle+r.stD+r.p.chanLat)
	} else {
		r.ejQ[op-int(numDirs)].Push(flitEvent{flit: f, due: cycle + r.stD})
		r.ejCount++
		r.sh.ejActive.set(int(r.p.node))
	}
	r.sh.flitHops++
	r.sh.moves++
	if f.Head {
		r.sh.noteHop(f.Pkt, r.p.node)
	}
	// Return the freed buffer slot upstream (direction inputs only; the
	// network interface reads injection buffer occupancy directly).
	if ivc.port < int(numDirs) && r.credChans[ivc.port] != nil {
		r.credChans[ivc.port].send(ivc.vc, cycle+r.p.credLat)
	}
	if f.Tail {
		out.owner = -1
		ivc.state = vcIdle
		ivc.outPort = -1
		ivc.allowed = nil
		// The VC leaves switch allocation; a next packet already queued
		// behind the tail is a head awaiting route computation.
		r.saMask &^= 1 << uint(idx)
		if ivc.buf.Len() > 0 {
			r.rcMask |= 1 << uint(idx)
		}
	}
}

// drainEjected pops all arrived flits from the ejection queues.
func (r *router) drainEjected(cycle uint64, visit func(Flit)) {
	for e := range r.ejQ {
		q := &r.ejQ[e]
		for q.Len() > 0 && q.Front().due <= cycle {
			r.ejCount--
			visit(q.Pop().flit)
		}
	}
}

// pickRR chooses the first bidder at or after *ptr in cyclic order over the
// index space [0, n), then advances the pointer past the winner. Bidders are
// input indices in [0, n) and the pointer rests in [0, n] (n after a
// last-index win), so one conditional add of n restores the cyclic distance
// for bidders that wrapped below the pointer.
func pickRR(bidders []int, ptr *int, n int) int {
	best := -1
	bestKey := 0
	for _, b := range bidders {
		key := b - *ptr
		if key < 0 {
			key += n // wrap below pointer to the end of the order
		}
		if best < 0 || key < bestKey {
			best, bestKey = b, key
		}
	}
	*ptr = best + 1
	return best
}
