package noc

import (
	"math/bits"
	"slices"
	"testing"
)

// allocState is everything VC and switch allocation may write in a router,
// flattened: the round-robin pointers, the output VC owners, each input
// VC's allocation fields, the free-VC masks, the request scratch and the
// stage masks. take reuses the buffers, so the exhaustive loops below
// compare states without allocating.
type allocState struct {
	ints  []int
	words []uint64
}

func (s *allocState) take(r *router) {
	s.ints = append(s.ints[:0], r.vaPtr...)
	s.ints = append(s.ints, r.saInPtr...)
	s.ints = append(s.ints, r.saOutPtr...)
	s.ints = append(s.ints, len(r.vaKeys))
	for _, o := range r.outputs {
		s.ints = append(s.ints, o.owner)
	}
	s.words = append(s.words[:0], r.outFree...)
	s.words = append(s.words, r.vaReq...)
	s.words = append(s.words, r.saReq...)
	s.words = append(s.words, r.arrMask, r.rcMask, r.vaMask, r.saMask)
	for i := range r.inputs {
		ivc := &r.inputs[i]
		s.ints = append(s.ints, int(ivc.state), ivc.outPort, ivc.outVC)
		s.words = append(s.words, ivc.readyAt)
	}
}

func (s *allocState) equal(o *allocState) bool {
	return slices.Equal(s.ints, o.ints) && slices.Equal(s.words, o.words)
}

// standaloneRouter builds a network-less router on slabs of its own.
func standaloneRouter(p routerParams) *router {
	r := new(router)
	var s routerSlabs
	p.slabSize().reuse(&s)
	r.init(p, nil, &s)
	return r
}

// loneTestRouter builds a network-less router whose direction outputs feed
// downstream windows of their own, so switch allocation can read free slots
// on every output port.
func loneTestRouter(p routerParams) *router {
	r := standaloneRouter(p)
	for d := range r.downVCs {
		down := make([]inVC, p.numVCs)
		slab := make([]Flit, p.numVCs*p.bufDepth)
		for v := range down {
			down[v].buf.buf = slab[v*p.bufDepth : (v+1)*p.bufDepth]
			down[v].nextAt = NeverCycle
		}
		r.downVCs[d] = down
	}
	return r
}

// saGate is one setting of every switch allocation eligibility gate for the
// bidder and its output: a front flit still on the wire, a stuck-VC fault,
// and for a direction port the downstream VC's buffered flits, recent pops
// (cycles ago, lowest bit the current cycle) and withheld credits. An
// ejection port has no gate of its own.
type saGate struct {
	onWire, stuck      bool
	buffered, withheld int
	pops               uint64 // bit k: a pop k cycles before the current one
}

// apply sets g on input VC idx of r, granted output (op, ov), at cycle.
func (g saGate) apply(r *router, idx, op, ov int, cycle uint64) {
	ivc := &r.inputs[idx]
	ivc.nextAt = cycle
	if g.onWire {
		ivc.nextAt = cycle + 1
	}
	r.stuck[idx] = 0
	if g.stuck {
		r.stuck[idx] = cycle + 1
	}
	if op >= int(numDirs) {
		return
	}
	down := &r.downVCs[op][ov]
	down.buf.head, down.buf.n = 0, g.buffered
	down.popAt, down.popBits, down.withheld = 0, 0, g.withheld
	for k := 63; k >= 0; k-- {
		if g.pops>>uint(k)&1 != 0 {
			down.notePop(cycle - uint64(k))
		}
	}
}

// eligible is the gate's verdict worked out from first principles: a pop's
// credit is in flight for credLat cycles, so the pops fewer than credLat
// cycles ago hold their slots.
func (g saGate) eligible(r *router, op int) bool {
	if g.onWire || g.stuck {
		return false
	}
	if op >= int(numDirs) {
		return true
	}
	inflight := bits.OnesCount64(g.pops & (uint64(1)<<r.p.credLat - 1))
	return g.buffered+inflight+g.withheld < r.p.bufDepth
}

// saGates lists the gate settings for output port op: both flag gates alone,
// and for a direction port every buffered count with every pop pattern over
// the last credLat+1 cycles and 0 to 2 withheld credits, as long as they fit
// the buffer; for an ejection port the open gate.
func saGates(r *router, op int) []saGate {
	gates := []saGate{{onWire: true}, {stuck: true}, {onWire: true, stuck: true}}
	if op >= int(numDirs) {
		return append(gates, saGate{})
	}
	depth := r.p.bufDepth
	for buffered := 0; buffered <= depth; buffered++ {
		for pops := uint64(0); pops < 1<<(r.p.credLat+1); pops++ {
			for withheld := 0; withheld <= 2; withheld++ {
				if buffered+bits.OnesCount64(pops)+withheld <= depth {
					gates = append(gates, saGate{buffered: buffered, withheld: withheld, pops: pops})
				}
			}
		}
	}
	return gates
}

// setVABidder leaves input VC idx the only VC waiting for VA in r, bidding
// on output port port with the given allowed mask and readiness cycle, the
// port's VCs in owned taken by another input VC, and every VA pointer at
// ptr. Every other input VC is idle and every other output VC free.
func setVABidder(r *router, idx, port int, owned uint64, ptr int, allowed, readyAt uint64) {
	n, nIns := r.p.numVCs, len(r.inputs)
	for i := range r.outputs {
		r.outputs[i].owner = -1
	}
	for o := range r.outFree {
		r.outFree[o] = uint64(1)<<uint(n) - 1
	}
	for v := 0; v < n; v++ {
		if owned>>uint(v)&1 != 0 {
			r.outputs[r.inIdx(port, v)].owner = (idx + 1) % nIns
		}
	}
	r.outFree[port] &^= owned
	for i := range r.inputs {
		r.inputs[i] = inVC{buf: r.inputs[i].buf, port: i / n, vc: i % n, outPort: -1}
	}
	ivc := &r.inputs[idx]
	ivc.state, ivc.outPort, ivc.allowed, ivc.readyAt = vcWaitVA, port, allowed, readyAt
	r.vaMask, r.saMask = 1<<uint(idx), 0
	for k := range r.vaPtr {
		r.vaPtr[k] = ptr
	}
}

// saArbitrated runs switch allocation's arbitration path over visit and
// returns the grant as a mask of input VCs: the input stage, then the
// output stage of every requested port.
func saArbitrated(r *router, visit uint64, cycle uint64) (granted uint64) {
	for outs := r.saRequest(visit, cycle); outs != 0; outs &= outs - 1 {
		granted |= 1 << uint(r.saGrant(bits.TrailingZeros64(outs)))
	}
	return granted
}

// saLone runs the lone-bidder path for visit, which holds one VC, and
// returns the grant as a mask of input VCs.
func saLone(r *router, visit uint64, cycle uint64) uint64 {
	if r.saGrantLone(bits.TrailingZeros64(visit), cycle) {
		return visit
	}
	return 0
}

// TestLoneBidderMatchesArbitration checks that granting a lone bidder
// directly is what arbitration would do with it, exhaustively over small
// routers (the arbitration path is the reference):
//
//   - switch allocation, for every VC count up to 8, every input port and
//     VC, every input-port pointer, every output-port pointer, every output
//     port, with the bidder eligible or not;
//   - switch allocation's eligibility gates — a flit on the wire, a stuck
//     VC, the downstream VC's buffered flits, credits in flight over a
//     3-cycle pop window and withheld lost credits, and the ejection bound —
//     on every output VC of every port, each setting also checked against
//     the verdict worked out from the gate itself;
//   - VC allocation, for every VC count up to 8, every buildVCPlan shape,
//     class and phase, every output port, every owner subset of its VCs,
//     ready or inside the RC delay, from the first and the last input VC
//     with the key's pointer at, past and beyond the bidder.
//
// Both paths start from the same state and must leave the same grant,
// pointers, owners, free masks, stage masks and request scratch.
func TestLoneBidderMatchesArbitration(t *testing.T) {
	const cycle = 20
	var got, want allocState
	check := func(t *testing.T, what string, ref, lone *router, refWin, loneWin uint64) {
		t.Helper()
		if refWin != loneWin {
			t.Fatalf("%s: lone path grants %#x, arbitration %#x", what, loneWin, refWin)
		}
		got.take(lone)
		if want.take(ref); !got.equal(&want) {
			t.Fatalf("%s: state after the lone path\n%v %v\nafter arbitration\n%v %v",
				what, got.ints, got.words, want.ints, want.words)
		}
	}
	for n := 1; n <= 8; n++ {
		p := routerParams{numVCs: n, bufDepth: 4, nInj: 1, nEj: 1, stages: 4, credLat: 3}
		ref, lone := loneTestRouter(p), loneTestRouter(p)
		nIns := ref.nIn * n

		// Switch allocation: pointers and output ports.
		for idx := 0; idx < nIns; idx++ {
			in, v := idx/n, idx%n // the bidder asks for output VC v
			for op := 0; op < ref.nOut; op++ {
				for _, elig := range []bool{true, false} {
					for start := 0; start < n; start++ {
						for outPtr := 0; outPtr <= nIns; outPtr++ {
							for _, r := range []*router{ref, lone} {
								ivc := &r.inputs[idx]
								ivc.state, ivc.outPort, ivc.outVC, ivc.readyAt = vcActive, op, v, cycle
								r.saMask = 1 << uint(idx)
								gate := saGate{}
								if !elig {
									gate.onWire = true
								}
								gate.apply(r, idx, op, v, cycle)
								r.saInPtr[in], r.saOutPtr[op] = start, outPtr
							}
							refWin := saArbitrated(ref, ref.saMask, cycle)
							loneWin := saLone(lone, lone.saMask, cycle)
							if (refWin != 0) != elig {
								t.Fatalf("n=%d idx %d op %d: arbitration grants %d, eligible %v", n, idx, op, refWin, elig)
							}
							check(t, "SA pointers", ref, lone, refWin, loneWin)
						}
					}
				}
			}
		}

		// Switch allocation: every eligibility gate on every output VC, for
		// a bidder on the last injection port.
		idx := nIns - 1
		for op := 0; op < ref.nOut; op++ {
			for ov := 0; ov < n; ov++ {
				for _, g := range saGates(ref, op) {
					for _, r := range []*router{ref, lone} {
						ivc := &r.inputs[idx]
						ivc.state, ivc.outPort, ivc.outVC, ivc.readyAt = vcActive, op, ov, cycle
						r.saMask = 1 << uint(idx)
						g.apply(r, idx, op, ov, cycle)
					}
					refWin := saArbitrated(ref, ref.saMask, cycle)
					loneWin := saLone(lone, lone.saMask, cycle)
					if want := g.eligible(ref, op); (loneWin != 0) != want {
						t.Fatalf("n=%d op %d ov %d gate %+v: lone path grants %d, the gate says eligible %v",
							n, op, ov, g, loneWin, want)
					}
					check(t, "SA gates", ref, lone, refWin, loneWin)
				}
			}
		}

		// VC allocation.
		for _, split := range []bool{false, true} {
			for phases := 1; phases <= 2; phases++ {
				plan, err := buildVCPlan(n, split, phases)
				if err != nil {
					continue // n not divisible across the shape's sets
				}
				for class := TrafficClass(0); class < NumClasses; class++ {
					for _, yx := range []bool{false, true} {
						for port := 0; port < ref.nOut; port++ {
							for owned := uint64(0); owned < 1<<uint(n); owned++ {
								for _, idx := range []int{0, nIns - 1} {
									for _, ptr := range []int{0, idx + 1, nIns} {
										for _, ready := range []bool{true, false} {
											readyAt := uint64(cycle)
											if !ready {
												readyAt++
											}
											allowed := plan.allowed(class, yx)
											setVABidder(ref, idx, port, owned, ptr, allowed, readyAt)
											setVABidder(lone, idx, port, owned, ptr, allowed, readyAt)
											visit := ref.vaMask
											refGrant := ref.vcAllocate(visit, cycle)
											loneGrant := lone.vcGrantLone(idx, cycle)
											if free := allowed &^ owned; (refGrant == visit) != (ready && free != 0) {
												t.Fatalf("n=%d port %d owned %#b ready %v: arbitration granted %#b", n, port, owned, ready, refGrant)
											}
											check(t, "VA", ref, lone, refGrant, loneGrant)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
