package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/reuse"
)

// maxInputVCs is the width of the per-router stage masks: one bit per input
// VC, indexed port*numVCs+vc. meshNet.init rejects configurations whose widest
// router would not fit.
const maxInputVCs = 64

// maxOutputPorts is the width of switch allocation's mask of requested
// output ports: four directions plus the ejection ports. meshNet.init rejects
// configurations whose MC routers would have more.
const maxOutputPorts = 64

// maxCreditLatency is the width of an input VC's pop window (inVC.popBits):
// a credit must reach the upstream router within 64 cycles of its pop.
// meshNet.init rejects longer credit latencies.
const maxCreditLatency = 64

// vcState is the lifecycle of an input virtual channel.
type vcState int

const (
	vcIdle   vcState = iota // no packet, or next head not yet route-computed
	vcWaitVA                // route computed, waiting for an output VC
	vcActive                // output VC held, flits compete in switch allocation
)

// flitFIFO is one input VC buffer: a fixed bufDepth-flit window of the
// network's flit slab, used as a circular FIFO. It checks no bounds of its
// own — deposit tests Full before every Push, and only non-empty VCs are
// popped — so Push and Pop inline. A popped slot keeps its flit until it is
// overwritten, so a VC holds at most bufDepth stale packet pointers.
type flitFIFO struct {
	buf  []Flit
	head int
	n    int
}

// Len returns the number of buffered flits (those on the wire included).
func (q *flitFIFO) Len() int { return q.n }

// Full reports whether every slot of the window is taken.
func (q *flitFIFO) Full() bool { return q.n == len(q.buf) }

// Front returns the oldest flit.
func (q *flitFIFO) Front() *Flit { return &q.buf[q.head] }

// At returns the i-th flit from the front (0-based).
func (q *flitFIFO) At(i int) *Flit {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return &q.buf[i]
}

// Push appends f; the caller has checked Full.
func (q *flitFIFO) Push(f Flit) {
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = f
	q.n++
}

// Pop removes and returns the front flit; the caller has checked Len.
func (q *flitFIFO) Pop() Flit {
	f := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return f
}

// inVC is one input virtual channel: a flit FIFO plus allocation state.
// The FIFO also holds flits still on the wire (deposited at send, stamped
// with their arrival cycle); nextAt caches the front flit's stamp so the
// stages can tell a visible flit from one in flight without touching buf.
//
// popAt and popBits are the credits on their way back upstream: bit k of
// popBits is set when a flit was popped at cycle popAt-k (a VC pops at most
// once a cycle), and a pop's credit is in flight for credLat cycles. The
// upstream router reads them, with buf, to derive its free slots (see
// router.freeSlots), so no credit is ever queued on the fault-free path.
// withheld counts the credits the fault model lost instead: they keep their
// slots out of the upstream router's count until the lost-credit return
// path resynchronises them (creditChannel).
type inVC struct {
	buf      flitFIFO
	popAt    uint64 // cycle of the last pop recorded in popBits
	popBits  uint64 // bit k: a pop at popAt-k whose credit was not lost
	withheld int    // lost credits of this VC's pops still on the resync path
	nextAt   uint64 // front flit's arrival cycle; NeverCycle when buf is empty
	state    vcState
	port     int // input port this VC sits on (fixed at construction)
	vc       int // VC number within the port (fixed at construction)
	outPort  int // granted output port (valid from vcWaitVA on)
	outVC    int // granted output VC (valid in vcActive)
	// allowed has bit v set for each output VC v this packet may use at this
	// hop: its vcPlan mask, set at route computation and cleared at the
	// tail, so it is 0 outside VC and switch allocation.
	allowed uint64
	readyAt uint64
}

// notePop records a pop at cycle whose credit returns after credLat. Bits
// shifted past 63 are pops older than any credit latency (at most 64).
func (ivc *inVC) notePop(cycle uint64) {
	ivc.popBits = ivc.popBits<<(cycle-ivc.popAt) | 1
	ivc.popAt = cycle
}

// inflight counts the pops whose credit has not reached the upstream router
// by cycle: those at cycles after cycle-credLat. window has the low credLat
// bits set (router.credWindow). The pop at popAt-k (bit k) is in flight
// while k < credLat-(cycle-popAt), so the in-flight bits are the window
// shifted right by the age of the last pop, none once that age reaches
// credLat.
func (ivc *inVC) inflight(cycle, window uint64) int {
	return bits.OnesCount64(ivc.popBits & (window >> (cycle - ivc.popAt)))
}

// outVC is the book-keeping for one (output port, VC) pair.
type outVC struct {
	owner int // input index holding this VC, or -1 when free
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

// ejLinkFlits is the most flits one ejection link holds. A flit stays on
// the link for stD = 1 cycle (at every depth), a port sends at most one flit
// a cycle, and the eject phase takes the due flits after every router has
// stepped: so a link holds at most one flit between ticks, and two mid-tick,
// last cycle's and this cycle's. An ejection port therefore never waits.
const ejLinkFlits = 2

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
}

// router is a VC wormhole router with separable round-robin (iSLIP-style)
// VC and switch allocation.
type router struct {
	p    routerParams
	net  *meshNet
	rcD  uint64
	vaD  uint64
	stD  uint64
	nIn  int // 4 dirs + nInj
	nOut int // 4 dirs + nEj

	// credWindow has the low credLat bits set: a pop's credit is in flight
	// for credLat cycles (inVC.inflight).
	credWindow uint64

	// Input and output VC state, flat over port*numVCs+vc (see inIdx).
	inputs  []inVC
	outputs []outVC

	// Stage masks: bit i names input VC i and is set exactly while that VC
	// waits on the stage, so each stage walks the VCs that can move instead
	// of scanning every (port, VC).
	//
	//	arrMask: vcIdle, front flit still on the wire (nextAt > cycle)
	//	rcMask:  vcIdle, front flit arrived (a head awaiting route computation)
	//	vaMask:  vcWaitVA
	//	saMask:  vcActive
	//
	// The four are disjoint, and a VC in none of them is idle and empty.
	// Bits change only where the state they mirror changes: a deposit that
	// wakes an idle VC (wake), the arrival promotion at the top of step, the
	// RC and VA grants, and the tail in traverse. Stages walk set bits lowest first, i.e. in ascending
	// (port, VC) order: the order ejRR, the round-robin pointers and the
	// fault-RNG draw sequence are defined against, so skipping clear bits
	// never reorders a side effect.
	arrMask, rcMask, vaMask, saMask uint64

	// The links. A direction output d is a unidirectional link to the
	// neighbour downRtr[d] (nil at the edge), which it feeds on the opposite
	// input port; downVCs[d] is that port's window of numVCs input VCs in
	// the neighbour. A link holds no flits: traverse deposits a sent flit
	// straight into the downstream input VC, stamped with the cycle it comes
	// off the wire (Flit.arrived), and the neighbour ignores it until then
	// (arrMask). The slot is already reserved — the sender saw it free, and
	// freeSlots counts the flits on the wire — so wire occupancy plus
	// buffered flits never exceed the buffer depth. A flit struck by a link
	// fault still occupies its slot and flows on (flow control acknowledges
	// it), but poisons its packet for the end-to-end check at the ejection
	// interface. Switch allocation reads free slots through downVCs, and
	// traverse deposits through it; downRtr is read only when a deposit
	// lands on an idle, empty VC and so wakes the neighbour.
	downRtr [numDirs]*router
	downVCs [numDirs][]inVC

	// outFree[port] has bit v set while output VC (port, v) has no owner:
	// it mirrors outputs[].owner < 0, cleared at the VA grant and set again
	// at the tail, so a VA bid is one AND with the VC's allowed mask.
	outFree []uint64

	// The lost-credit return path, built only when faults are enabled:
	// credChans per dir input port (back to upstream) and credIn per dir
	// output port (lost credits coming back); nil at the edge. credPend has
	// bit d set while credIn[d] holds queued credits; step pulls the due
	// ones before it reads any free-slot count.
	credChans []*creditChannel
	credIn    []*creditChannel
	credPend  uint8

	// stuck[inIdx] holds the cycle until which a stuck-VC fault freezes that
	// input VC's switch allocation; 0 unless faults are enabled.
	stuck []uint64

	// Round-robin pointers.
	vaPtr    []int // per outPort*numVCs+outVC, over input index
	saInPtr  []int // per input port, over VCs
	saOutPtr []int // per output port, over input ports
	ejRR     int

	// Allocation scratch, reused across cycles: vaReq[key] is the mask of
	// input indices bidding for output VC key = outPort*numVCs+outVC and
	// vaKeys the dirty keys in discovery order; saReq[out] is the mask of
	// switch bidders per output port. Every mask is zero between cycles.
	// vaReq, saReq, outFree and stuck are windows of the network's word
	// slab (routerSlabs).
	vaReq  []uint64
	vaKeys []int
	saReq  []uint64
}

// routerSlabs holds the network-wide arrays that routers carve their state
// from: each router takes the next consecutive window of every slab, so a
// whole network's router state is five allocations however many routers it
// has. A router's window of flits holds one bufDepth-flit buffer per input
// VC; its ints hold vaPtr, saInPtr, saOutPtr and vaKeys; its words
// hold vaReq, saReq, outFree and stuck.
type routerSlabs struct {
	flits   []Flit
	inputs  []inVC
	outputs []outVC
	ints    []int
	words   []uint64
}

// slabSize counts what a router with params p takes of each slab, as the
// lengths of a sizing routerSlabs.
type slabSize struct{ flits, inputs, outputs, ints, words int }

func (p *routerParams) slabSize() slabSize {
	nIn, nOut := int(numDirs)+p.nInj, int(numDirs)+p.nEj
	nIns, nKeys := nIn*p.numVCs, nOut*p.numVCs
	return slabSize{
		flits:   nIns * p.bufDepth,
		inputs:  nIns,
		outputs: nKeys,
		ints:    nKeys + nIn + nOut + nKeys,
		words:   nKeys + 2*nOut + nIns,
	}
}

func (s *slabSize) add(o slabSize) {
	s.flits += o.flits
	s.inputs += o.inputs
	s.outputs += o.outputs
	s.ints += o.ints
	s.words += o.words
}

// reuse re-slices rs to exactly these sizes, zeroed, allocating only the
// slabs whose capacity does not fit.
func (s slabSize) reuse(rs *routerSlabs) {
	*rs = routerSlabs{
		flits:   reuse.Slice(rs.flits, s.flits),
		inputs:  reuse.Slice(rs.inputs, s.inputs),
		outputs: reuse.Slice(rs.outputs, s.outputs),
		ints:    reuse.Slice(rs.ints, s.ints),
		words:   reuse.Slice(rs.words, s.words),
	}
}

// carve cuts the next n elements off the front of *slab, clipped so that
// an append never runs into the next owner's window.
func carve[T any](slab *[]T, n int) []T {
	w := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return w
}

// init builds r in place from p, carving its buffers and tables from s,
// which must hold at least p.slabSize().
func (r *router) init(p routerParams, net *meshNet, s *routerSlabs) {
	*r = router{p: p, net: net}
	r.rcD, r.vaD, r.stD = pipeDelays(p.stages)
	if r.p.credLat == 0 {
		// A credit is never usable in the cycle it is sent: an upstream
		// router stepping later in the same cycle must not see it.
		r.p.credLat = 1
	}
	r.credWindow = uint64(1)<<r.p.credLat - 1
	r.nIn = int(numDirs) + p.nInj
	r.nOut = int(numDirs) + p.nEj
	if r.nIn*p.numVCs > maxInputVCs {
		panic(fmt.Sprintf("noc: router %d has %d input VCs, stage masks hold %d",
			p.node, r.nIn*p.numVCs, maxInputVCs))
	}
	nKeys, nIns := r.nOut*p.numVCs, r.nIn*p.numVCs
	flits := carve(&s.flits, nIns*p.bufDepth)
	r.inputs = carve(&s.inputs, nIns)
	for i := range r.inputs {
		ivc := &r.inputs[i]
		ivc.port, ivc.vc = i/p.numVCs, i%p.numVCs
		ivc.outPort = -1
		ivc.nextAt = NeverCycle
		ivc.buf.buf = flits[i*p.bufDepth : (i+1)*p.bufDepth : (i+1)*p.bufDepth]
	}
	r.outputs = carve(&s.outputs, nKeys)
	for o := range r.outputs {
		r.outputs[o].owner = -1
	}
	r.vaPtr = carve(&s.ints, nKeys)
	r.saInPtr = carve(&s.ints, r.nIn)
	r.saOutPtr = carve(&s.ints, r.nOut)
	r.vaKeys = carve(&s.ints, nKeys)[:0]
	r.vaReq = carve(&s.words, nKeys)
	r.saReq = carve(&s.words, r.nOut)
	r.outFree = carve(&s.words, r.nOut)
	r.stuck = carve(&s.words, nIns)
	for o := range r.outFree {
		r.outFree[o] = uint64(1)<<uint(p.numVCs) - 1
	}
}

// inIdx flattens (port, vc) into the index shared by inputs, outputs, stuck
// and the stage masks.
func (r *router) inIdx(port, vc int) int { return port*r.p.numVCs + vc }

// busy reports whether any input VC holds work (a flit buffered or on the
// wire towards it, or allocation state); step is a no-op otherwise, so the
// network skips the router. Queued lost credits alone do not make a router
// busy: nothing reads a free-slot count before the next step pulls them.
func (r *router) busy() bool { return r.arrMask|r.rcMask|r.vaMask|r.saMask != 0 }

// working reports whether the router has a VC in a pipeline stage, i.e. work
// for the very next cycle; a busy router that is not working only waits for
// flits on the wire.
func (r *router) working() bool { return r.rcMask|r.vaMask|r.saMask != 0 }

// deposit enqueues f, stamped with the cycle it becomes visible, and reports
// whether it landed on an idle, empty VC: a head the owning router must
// wake for. It is the one way a flit enters an input VC: injectFlit
// deposits an injected flit, traverse a sent one. Credit accounting
// guarantees space; overflow means a protocol bug.
func (ivc *inVC) deposit(f Flit) bool {
	if ivc.buf.Full() {
		panic(overflowError{ivc.port, ivc.vc})
	}
	wake := false
	if ivc.buf.n == 0 {
		ivc.nextAt = f.arrived
		wake = ivc.state == vcIdle
	}
	ivc.buf.Push(f)
	return wake
}

// overflowError is the panic value of a deposit into a full VC buffer. It is
// formatted only when printed, which keeps deposit within the compiler's
// inlining budget.
type overflowError struct{ port, vc int }

func (e overflowError) Error() string {
	return fmt.Sprintf("noc: input port %d vc %d buffer overflow", e.port, e.vc)
}

// wake enters an idle VC that a deposit has just made non-empty into route
// computation: rcMask once its head is visible, arrMask while it is still
// on the wire. It puts the router on the network's active list.
func (r *router) wake(ivc *inVC, cycle uint64) {
	bit := uint64(1) << uint(r.inIdx(ivc.port, ivc.vc))
	if ivc.nextAt <= cycle {
		r.rcMask |= bit
	} else {
		r.arrMask |= bit
	}
	r.net.rtrActive.set(int(r.p.node))
}

// pullCredits takes the due lost credits off the flagged return links.
func (r *router) pullCredits(cycle uint64) {
	for m := r.credPend; m != 0; m &= m - 1 {
		d := bits.TrailingZeros8(m)
		cc := r.credIn[d]
		cc.deliver(cycle)
		if cc.q.Len() == 0 {
			r.credPend &^= 1 << uint(d)
		}
	}
}

// promoteArrived moves idle VCs whose head has come off the wire from
// arrMask to rcMask.
func (r *router) promoteArrived(cycle uint64) {
	for m := r.arrMask; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		if r.inputs[idx].nextAt <= cycle {
			r.arrMask &^= 1 << uint(idx)
			r.rcMask |= 1 << uint(idx)
		}
	}
}

// injSpace reports free slots in an injection port VC buffer (used by the
// network interface, which writes flits directly).
func (r *router) injSpace(injPort, vc int) int {
	return r.p.bufDepth - r.inputs[r.inIdx(int(numDirs)+injPort, vc)].buf.Len()
}

// injectFlit writes one flit into an injection buffer, visible at once.
func (r *router) injectFlit(injPort int, f Flit, cycle uint64) {
	f.arrived = cycle
	if ivc := &r.inputs[r.inIdx(int(numDirs)+injPort, int(f.VC))]; ivc.deposit(f) {
		r.wake(ivc, cycle)
	}
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

// step runs one router cycle: pull resynchronised lost credits, admit flits
// that have come off the wire, then route computation, VC allocation, switch
// allocation and switch traversal, each over its stage mask. A VC that
// entered a stage this step and cannot act in it yet is left out of that
// stage's visit: a head routed now whose RC delay runs past this cycle, and,
// when vaD is 1, a VC granted now. Every VC granted in an earlier step is
// ready (readyAt <= cycle), so switch allocation tests no allocation delay.
// A stage with a lone bidder grants it directly (vcGrantLone, saGrantLone);
// arbitration (vcAllocate, switchAllocate) is for contention.
func (r *router) step(cycle uint64) {
	if r.credPend != 0 {
		r.pullCredits(cycle)
	}
	if r.arrMask != 0 {
		r.promoteArrived(cycle)
	}
	var fresh, granted uint64
	if r.rcMask != 0 {
		fresh = r.routeCompute(cycle)
	}
	switch va := r.vaMask &^ fresh; {
	case va&(va-1) != 0:
		granted = r.vcAllocate(va, cycle)
	case va != 0:
		granted = r.vcGrantLone(bits.TrailingZeros64(va), cycle)
	}
	sa := r.saMask
	if r.vaD > 0 {
		sa &^= granted
	}
	switch {
	case sa&(sa-1) != 0:
		r.switchAllocate(sa, cycle)
	case sa != 0:
		if idx := bits.TrailingZeros64(sa); r.saGrantLone(idx, cycle) {
			r.traverse(idx, cycle)
		}
	}
}

// routeCompute processes the head flits at the front of idle VCs; every VC
// it visits moves on to VC allocation. It returns the VCs it routed whose
// readyAt is still ahead of cycle, which VC allocation skips this step.
func (r *router) routeCompute(cycle uint64) (fresh uint64) {
	for m := r.rcMask; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		ivc := &r.inputs[idx]
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
			if r.ejRR++; r.ejRR == r.p.nEj {
				r.ejRR = 0
			}
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
		} else if ivc.readyAt > cycle {
			fresh |= 1 << uint(idx)
		}
	}
	r.vaMask |= r.rcMask
	r.rcMask = 0
	return fresh
}

// vaBid returns the output VC key = outPort*numVCs+outVC that waiting input
// VC ivc bids for at cycle: the lowest free VC of its allowed mask at its
// output port, which is the first free VC of the plan's ascending set. It
// returns -1 while the VC is inside its RC delay or no allowed VC is free.
func (r *router) vaBid(ivc *inVC, cycle uint64) int {
	if ivc.readyAt > cycle {
		return -1 // routed in an earlier step, still inside its RC delay
	}
	free := ivc.allowed & r.outFree[ivc.outPort]
	if free == 0 {
		return -1
	}
	return ivc.outPort*r.p.numVCs + bits.TrailingZeros64(free)
}

// vcGrantLone allocates for input VC idx, the only VC in VC allocation's
// visit, and returns the grant. Its bid is the only one on its key, so
// arbitration would grant it and leave the key's pointer one past it, which
// is all this does.
func (r *router) vcGrantLone(idx int, cycle uint64) (granted uint64) {
	key := r.vaBid(&r.inputs[idx], cycle)
	if key < 0 {
		return 0
	}
	r.vaPtr[key] = idx + 1
	r.grantVC(idx, key, cycle)
	return 1 << uint(idx)
}

// vcAllocate is separable VC allocation over visit, a subset of vaMask:
// every ready VC bids for one output VC (vaBid), and each contested output
// VC grants round-robin. Grants are processed in key-discovery order; they
// are independent per key (every input VC bids on exactly one key), so the
// order does not affect the outcome. It returns the granted VCs.
func (r *router) vcAllocate(visit uint64, cycle uint64) (granted uint64) {
	for m := visit; m != 0; m &= m - 1 {
		idx := bits.TrailingZeros64(m)
		key := r.vaBid(&r.inputs[idx], cycle)
		if key < 0 {
			continue
		}
		if r.vaReq[key] == 0 {
			r.vaKeys = append(r.vaKeys, key)
		}
		r.vaReq[key] |= 1 << uint(idx)
	}
	for _, key := range r.vaKeys {
		winner := pickRRMask(r.vaReq[key], &r.vaPtr[key])
		r.vaReq[key] = 0
		r.grantVC(winner, key, cycle)
		granted |= 1 << uint(winner)
	}
	r.vaKeys = r.vaKeys[:0]
	return granted
}

// grantVC gives output VC key to input VC idx, which moves from VC to switch
// allocation once vaD has passed.
func (r *router) grantVC(idx, key int, cycle uint64) {
	ivc := &r.inputs[idx]
	r.outputs[key].owner = idx
	ivc.outVC = key - ivc.outPort*r.p.numVCs
	r.outFree[ivc.outPort] &^= 1 << uint(ivc.outVC)
	ivc.state = vcActive
	ivc.readyAt = cycle + r.vaD
	r.vaMask &^= 1 << uint(idx)
	r.saMask |= 1 << uint(idx)
}

// saGrantLone reports whether input VC idx, the only VC in switch
// allocation's visit, wins, and advances the pointers as arbitration would:
// its input port's pointer to the VC after it, and its output port's
// pointer one past idx, where pickRRMask leaves it for a single bidder.
func (r *router) saGrantLone(idx int, cycle uint64) bool {
	ivc := &r.inputs[idx]
	if !r.saEligible(ivc, idx, cycle) {
		return false
	}
	v := ivc.vc + 1
	if v == r.p.numVCs {
		v = 0
	}
	r.saInPtr[ivc.port] = v
	r.saOutPtr[ivc.outPort] = idx + 1
	return true
}

// switchAllocate picks one flit per input port and one per output port
// (input-first separable allocation) among the VCs in visit, a subset of
// saMask that step has cleared of VCs still inside their VA delay, and
// traverses the switch. Grants run in output-port order: traverse draws from
// the fault RNG (credit-loss per send), so the iteration order must be
// deterministic for equal-seeded runs to stay bit-identical.
func (r *router) switchAllocate(visit uint64, cycle uint64) {
	for outs := r.saRequest(visit, cycle); outs != 0; outs &= outs - 1 {
		r.traverse(r.saGrant(bits.TrailingZeros64(outs)), cycle)
	}
}

// saRequest is the input stage of separable switch allocation over visit:
// each input port picks one eligible VC (pickSAInput), which requests its
// output port in saReq. It returns the mask of requested output ports.
func (r *router) saRequest(visit uint64, cycle uint64) (outs uint64) {
	n := uint(r.p.numVCs)
	window := uint64(1)<<n - 1
	for in, m := 0, visit; m != 0; in, m = in+1, m>>n {
		if m&window == 0 {
			continue
		}
		if idx, ok := r.pickSAInput(in, m&window, cycle); ok {
			out := r.inputs[idx].outPort
			r.saReq[out] |= 1 << uint(idx)
			outs |= 1 << uint(out)
		}
	}
	return outs
}

// saGrant is the output stage: output port out grants one of its requests
// round-robin and clears them. It returns the winning input index.
func (r *router) saGrant(out int) int {
	req := r.saReq[out]
	r.saReq[out] = 0
	return pickRRMask(req, &r.saOutPtr[out])
}

// pickSAInput selects, round-robin, an eligible VC at input port in and
// returns its input index. active is the port's numVCs-bit window of the
// switch allocation visit mask, whose VCs are all past their allocation
// delay. Rotating the window right by the port's pointer puts VC (start+k)%n
// at bit k, so ascending bits visit the active VCs in round-robin order from
// start.
func (r *router) pickSAInput(in int, active uint64, cycle uint64) (int, bool) {
	n := r.p.numVCs
	start := r.saInPtr[in]
	for m := rotateWindow(active, start, n); m != 0; m &= m - 1 {
		v := start + bits.TrailingZeros64(m)
		if v >= n {
			v -= n
		}
		idx := in*n + v
		if !r.saEligible(&r.inputs[idx], idx, cycle) {
			continue
		}
		if v++; v == n {
			v = 0
		}
		r.saInPtr[in] = v
		return idx, true
	}
	return 0, false
}

// rotateWindow rotates the low n bits of w right by start (0 <= start < n).
func rotateWindow(w uint64, start, n int) uint64 {
	return (w>>uint(start) | w<<uint(n-start)) & (uint64(1)<<uint(n) - 1)
}

// saEligible reports whether active input VC ivc (input index idx), past its
// allocation delay, can send at cycle: its front flit is off the wire, no
// stuck-VC fault holds it, and its output is ready. It is the one
// eligibility test of both switch allocation paths (pickSAInput,
// saGrantLone), and stays within the compiler's inlining budget, so
// neither pays a call per candidate.
func (r *router) saEligible(ivc *inVC, idx int, cycle uint64) bool {
	if ivc.nextAt > cycle || r.stuck[idx] > cycle {
		return false
	}
	return r.outputReady(ivc, cycle)
}

// outputReady reports whether a flit of ivc can leave via its granted output
// at cycle: a free downstream slot for a direction port. An ejection port is
// always ready: its link holds at most ejLinkFlits flits, which the FIFO is
// sized for.
func (r *router) outputReady(ivc *inVC, cycle uint64) bool {
	if ivc.outPort >= int(numDirs) {
		return true
	}
	return r.freeSlots(&r.downVCs[ivc.outPort][ivc.outVC], cycle) > 0
}

// freeSlots is the credit count of a direction output at cycle, derived
// from down, the downstream input VC it feeds: its depth less the flits it
// holds (on the wire or buffered: traverse deposits them), the pops whose
// credit is still in flight, and the lost credits withheld until their
// resync. Reading the neighbour's VC is exact whichever of the two routers
// steps first in a cycle: a pop at this cycle is in flight either way, since
// credLat is at least 1.
func (r *router) freeSlots(down *inVC, cycle uint64) int {
	return r.p.bufDepth - down.buf.n - down.inflight(cycle, r.credWindow) - down.withheld
}

// traverse moves the front flit of input VC idx through the switch. A flit
// for a direction port goes on the wire: deposited straight into the
// downstream VC through downVCs, stamped with the cycle it lands.
func (r *router) traverse(idx int, cycle uint64) {
	ivc := &r.inputs[idx]
	f := ivc.buf.Pop()
	ivc.nextAt = NeverCycle
	if ivc.buf.Len() > 0 {
		ivc.nextAt = ivc.buf.Front().arrived
	}
	op, ov := ivc.outPort, ivc.outVC
	f.VC = int16(ov)
	if op < int(numDirs) {
		// Each send is the link fault model's strike point, drawn on the
		// arrival cycle.
		f.arrived = cycle + r.stD + r.p.chanLat
		if fs := r.net.fs; fs != nil {
			fs.noteSend(f.Pkt, f.arrived)
		}
		if down := &r.downVCs[op][ov]; down.deposit(f) {
			r.downRtr[op].wake(down, cycle)
		}
	} else {
		r.net.ejq.Push(ejFlit{pkt: f.Pkt, at: cycle + r.stD, node: int32(r.p.node)})
	}
	r.net.stats.FlitHops++
	r.net.moveCount++
	if f.Head {
		f.Pkt.hops++
	}
	// Return the freed buffer slot upstream (direction inputs only; the
	// network interface reads injection buffer occupancy directly).
	if ivc.port < int(numDirs) {
		r.releaseSlot(ivc, cycle)
	}
	if f.Tail {
		r.outputs[r.inIdx(op, ov)].owner = -1
		r.outFree[op] |= 1 << uint(ov)
		ivc.state = vcIdle
		ivc.outPort = -1
		ivc.allowed = 0
		// The VC leaves switch allocation; a next packet already queued
		// behind the tail is a head awaiting route computation, or still
		// on the wire.
		r.saMask &^= 1 << uint(idx)
		if ivc.nextAt <= cycle {
			r.rcMask |= 1 << uint(idx)
		} else if ivc.nextAt != NeverCycle {
			r.arrMask |= 1 << uint(idx)
		}
	}
}

// releaseSlot returns the slot of a flit popped at cycle from direction input
// ivc: its credit reaches the upstream router credLat cycles later, which
// the upstream router reads off popBits. A credit the fault model loses
// (drawn here, once per pop, in traversal order) stays out of popBits: it is
// withheld upstream and rides the return ring until the resync window ends.
func (r *router) releaseSlot(ivc *inVC, cycle uint64) {
	due := cycle + r.p.credLat
	r.net.credDue = due
	if fs := r.net.fs; fs != nil {
		if delay := fs.delayCredit(r.net); delay > 0 {
			r.credChans[ivc.port].withhold(ivc.vc, due+delay)
			return
		}
	}
	ivc.notePop(cycle)
}

// pickRRMask chooses the first bidder at or after *ptr in cyclic order and
// advances the pointer past the winner. Bit i of bidders (non-zero) names
// input index i; the pointer rests in [0, 64], and at 64 — after a win at the
// last index of a full-width router — the shift yields zero, which is the
// wrap case like any other pointer above the highest bidder.
func pickRRMask(bidders uint64, ptr *int) int {
	best := bits.TrailingZeros64(bidders)
	if hi := bidders >> uint(*ptr); hi != 0 {
		best = *ptr + bits.TrailingZeros64(hi)
	}
	*ptr = best + 1
	return best
}
