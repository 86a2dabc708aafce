package noc

import (
	"testing"

	"repro/internal/xrand"
)

// popLog is the credit audit's own record of the pops on every direction
// input VC, observed from outside the router: the front flit each VC held at
// the last check, and the cycles of its pops whose credit was not lost.
type popLog struct {
	front map[*inVC]Flit
	pops  map[*inVC][]uint64
}

func newPopLog() *popLog {
	return &popLog{front: make(map[*inVC]Flit), pops: make(map[*inVC][]uint64)}
}

// observe logs the pop, if any, that ivc made in the tick just run: its old
// front flit is gone (a VC pops at most one flit a cycle, from the front). A
// pop whose credit was lost shows up as a return-ring event on back due
// exactly credLat plus the resync window later; any other pop's credit is in
// flight. It returns the pops whose credit has not yet reached upstream.
func (pl *popLog) observe(ivc *inVC, vc int, back *creditChannel, cycle, credLat, resync uint64) int {
	if prev, had := pl.front[ivc]; had {
		if ivc.buf.Len() == 0 || ivc.buf.Front().Pkt != prev.Pkt || ivc.buf.Front().Seq != prev.Seq {
			lost := false
			for i := 0; back != nil && i < back.q.Len(); i++ {
				if ev := back.q.At(i); ev.vc == vc && ev.due == cycle+credLat+resync {
					lost = true
				}
			}
			if !lost {
				pl.pops[ivc] = append(pl.pops[ivc], cycle)
			}
		}
	}
	delete(pl.front, ivc)
	if ivc.buf.Len() > 0 {
		pl.front[ivc] = *ivc.buf.Front()
	}
	kept := pl.pops[ivc][:0]
	for _, at := range pl.pops[ivc] {
		if at+credLat > cycle {
			kept = append(kept, at)
		}
	}
	pl.pops[ivc] = kept
	return len(kept)
}

// checkCreditConservation verifies, for every direction link and VC, that
//
//	free slots upstream + flits on the wire + flits buffered downstream
//	+ credits in flight + credits withheld == buffer depth
//
// This is the fundamental credit-based flow-control invariant; any leak or
// double-count breaks it immediately. The free slots are what the upstream
// router's switch allocation reads (router.freeSlots); the other four terms
// are counted here independently. Links hold no flits of their own: a flit on
// the wire already sits in the downstream buffer with an arrival stamp in
// the future. A credit in flight is a pop at most credLat-1 cycles old, as
// the pop log saw it (it must be called after every Tick), and a withheld
// credit is a lost one waiting on the upstream router's return ring, which
// exists only when faults are enabled. With quiet set the network has
// drained and every credit is back: the free slots must equal the depth.
func checkCreditConservation(t *testing.T, m *Mesh, pl *popLog, cycle int, quiet bool) {
	t.Helper()
	n := &m.meshNet
	depth := n.cfg.BufDepth
	for id, r := range n.routers {
		if (r.credIn != nil) != (n.fs != nil) {
			t.Fatalf("router %d: return rings built %v, faults enabled %v", id, r.credIn != nil, n.fs != nil)
		}
		for d := Port(0); d < numDirs; d++ {
			down := r.downRtr[d]
			if down == nil {
				continue
			}
			port := int(d.opposite())
			var back *creditChannel
			if n.fs != nil {
				back = r.credIn[d]
				if back == nil || back.dst != r || back.dstPort != int(d) || down.credChans[port] != back {
					t.Fatalf("router %d dir %v: no credit channel back from router %d", id, d, down.p.node)
				}
			}
			for vc := 0; vc < n.cfg.NumVCs; vc++ {
				ivc := &down.inputs[down.inIdx(port, vc)]
				if &r.downVCs[d][vc] != ivc {
					t.Fatalf("router %d dir %v vc %d: downstream window is not router %d's input VC", id, d, vc, down.p.node)
				}
				free := r.freeSlots(ivc, n.cycle)
				onWire, buffered := 0, 0
				for i := 0; i < ivc.buf.Len(); i++ {
					if ivc.buf.At(i).arrived > n.cycle {
						onWire++
					} else if onWire > 0 {
						t.Fatalf("cycle %d router %d dir %v vc %d: arrived flit queued behind one on the wire",
							cycle, id, d, vc)
					} else {
						buffered++
					}
				}
				inflight := pl.observe(ivc, vc, back, n.cycle, r.p.credLat, n.cfg.Fault.CreditResyncCycles)
				withheld := 0
				for i := 0; back != nil && i < back.q.Len(); i++ {
					if back.q.At(i).vc == vc {
						withheld++
					}
				}
				if got := ivc.withheld; got != withheld {
					t.Fatalf("cycle %d router %d dir %v vc %d: %d credits withheld, %d on the return ring",
						cycle, id, d, vc, got, withheld)
				}
				if total := free + onWire + buffered + inflight + withheld; free < 0 || total != depth {
					t.Fatalf("cycle %d router %d dir %v vc %d: free=%d wire=%d buf=%d inflight=%d withheld=%d, sum %d != depth %d",
						cycle, id, d, vc, free, onWire, buffered, inflight, withheld, total, depth)
				}
				if quiet && free != depth {
					t.Fatalf("cycle %d router %d dir %v vc %d: drained network has %d of %d slots free",
						cycle, id, d, vc, free, depth)
				}
			}
		}
	}
}

// TestCreditConservationUnderLoad drives heavy mixed traffic and checks the
// invariant every cycle, through saturation and the drain, on a mesh and a
// checkerboard mesh at the paper's 1-cycle credit return, a 5-cycle return,
// and a faulty mesh whose lost credits are withheld for the resync window.
// Once the network is quiet and the last credit has had time to return (the
// routers pull what their next step would), every link is back at depth.
func TestCreditConservationUnderLoad(t *testing.T) {
	cfgs := map[string]Config{"mesh": DefaultConfig()}
	cb := DefaultConfig()
	cb.Checkerboard = true
	cb.Routing = RoutingCheckerboard
	cb.NumVCs = 4
	cb.MCs = CheckerboardPlacement(6, 6, 8)
	cb.MCInjPorts = 2
	cfgs["checkerboard"] = cb
	slow := DefaultConfig()
	slow.CreditLatency = 5
	cfgs["credit-latency-5"] = slow
	faulty := DefaultConfig()
	faulty.CreditLatency = 3
	faulty.Fault = faulty.Fault.WithRate(0.004, 3)
	faulty.Fault.RetxTimeout = 512
	faulty.Fault.CreditResyncCycles = 40
	cfgs["faults"] = faulty

	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			m := MustNewMesh(cfg)
			topo := m.Topology()
			rng := xrand.New(99)
			comp := topo.ComputeNodes()
			mcs := topo.MCs()
			pl := newPopLog()
			cycle := 0
			for ; cycle < 2000 || (!m.Quiet() && cycle < 20000); cycle++ {
				if cycle < 2000 {
					for k := 0; k < 3; k++ {
						var p *Packet
						if k == 2 {
							p = &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
								Class: ClassReply, Bytes: 64}
						} else {
							p = &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
								Class: ClassRequest, Bytes: 8}
						}
						m.TryInject(p)
					}
				}
				m.Tick()
				m.Delivered()
				checkCreditConservation(t, m, pl, cycle, false)
			}
			if !m.Quiet() {
				t.Fatalf("network did not drain by cycle %d", cycle)
			}
			settle := cfg.CreditLatency + cfg.Fault.CreditResyncCycles
			for i := uint64(0); i < settle; i++ {
				m.Tick()
				checkCreditConservation(t, m, pl, cycle, false)
				cycle++
			}
			for _, r := range m.routers {
				r.pullCredits(m.Cycle())
			}
			checkCreditConservation(t, m, pl, cycle, true)
			if st := m.Stats(); name == "faults" && st.LostCredits == 0 {
				t.Error("no credit was lost: the withheld path never ran")
			}
		})
	}
}

// TestHalfRouterNeverTurns inspects every switch traversal in a loaded
// checkerboard mesh: flits entering a half-router on a direction port must
// leave straight through or eject.
func TestHalfRouterNeverTurns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(123)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	// The legality check inside the router panics on an illegal turn, so
	// driving traffic through every half-router suffices.
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle < 3000 {
			p := &Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
				Class: ClassRequest, Bytes: 8}
			m.TryInject(p)
			q := &Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64}
			m.TryInject(q)
		}
		m.Tick()
		m.Delivered()
	}
	if !m.Quiet() {
		for i := 0; i < 20000 && !m.Quiet(); i++ {
			m.Tick()
			m.Delivered()
		}
	}
	if !m.Quiet() {
		t.Fatal("checkerboard mesh failed to drain")
	}
}

// TestVCClassIsolation checks that request flits never occupy reply VCs and
// vice versa on a class-split network.
func TestVCClassIsolation(t *testing.T) {
	cfg := DefaultConfig() // 2 VCs: vc0 = request, vc1 = reply
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(7)
	comp := topo.ComputeNodes()
	mcs := topo.MCs()
	check := func(cycle int) {
		for id, r := range m.meshNet.routers {
			for in := 0; in < r.nIn; in++ {
				for vc := 0; vc < cfg.NumVCs; vc++ {
					buf := &r.inputs[r.inIdx(in, vc)].buf
					for i := 0; i < buf.Len(); i++ {
						f := buf.At(i)
						wantVC := 0
						if f.Pkt.Class == ClassReply {
							wantVC = 1
						}
						if vc != wantVC {
							t.Fatalf("cycle %d router %d: %v flit on vc %d", cycle, id, f.Pkt.Class, vc)
						}
					}
				}
			}
		}
	}
	for cycle := 0; cycle < 1500; cycle++ {
		if cycle < 1000 {
			m.TryInject(&Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
				Class: ClassRequest, Bytes: 8})
			m.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64})
		}
		m.Tick()
		m.Delivered()
		check(cycle)
	}
}

// TestWormholeContiguityPerVC asserts flits of one packet stay in order on
// each VC buffer (no interleaving within a VC).
func TestWormholeContiguityPerVC(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	topo := m.Topology()
	rng := xrand.New(31)
	mcs := topo.MCs()
	comp := topo.ComputeNodes()
	check := func() {
		for _, r := range m.meshNet.routers {
			for in := 0; in < r.nIn; in++ {
				for vc := 0; vc < cfg.NumVCs; vc++ {
					buf := &r.inputs[r.inIdx(in, vc)].buf
					for i := 1; i < buf.Len(); i++ {
						cur, prev := buf.At(i), buf.At(i-1)
						if cur.Pkt == prev.Pkt {
							if cur.Seq != prev.Seq+1 {
								t.Fatalf("out-of-order flits of pkt %d: %d after %d",
									cur.Pkt.ID, cur.Seq, prev.Seq)
							}
						} else if !cur.Head {
							// A different packet may only start at a head flit.
							if prev.Tail {
								t.Fatalf("non-head flit of pkt %d follows tail of pkt %d",
									cur.Pkt.ID, prev.Pkt.ID)
							}
							t.Fatalf("interleaved packets %d and %d in one VC",
								prev.Pkt.ID, cur.Pkt.ID)
						}
					}
				}
			}
		}
	}
	for cycle := 0; cycle < 2000; cycle++ {
		if cycle < 1500 {
			m.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
				Class: ClassReply, Bytes: 64})
		}
		m.Tick()
		m.Delivered()
		check()
	}
}

// checkStageMasks rebuilds each router's stage masks, cached arrival stamps
// and pending-credit flags by scanning its input VCs and lost-credit rings — the
// scan the masks replaced in router.step — and demands the maintained state
// match bit for bit. An idle VC holding flits is on arrMask exactly while its
// front is still on the wire (stamp in the future) and on rcMask once it has
// arrived. It also checks that the derived busy condition agrees with a
// scan-counted one (zero busy VCs exactly when all masks are zero) and, at a
// cycle boundary, with the router's bit on the network's active list, and
// that every VC in switch allocation is ready within vaD cycles. The
// allocation masks are rebuilt too: outFree from the output VCs' owners,
// each VC's allowed mask from its packet's VC plan (0 outside VC and switch
// allocation), and each NI's writer mask from its writers. Last, it checks
// the bound that lets an ejection port send without a capacity check: every
// flit on the ejection FIFO was sent in the tick just run (due the next
// cycle, so the eject phase left nothing due behind), at most one per
// ejection port of its router. With the at most one flit a port sends in
// the next tick, no ejection link ever holds more than ejLinkFlits.
func checkStageMasks(t *testing.T, m *Mesh, cycle int) {
	t.Helper()
	now := m.Cycle()
	onLinks := make([]int, len(m.routers))
	for i := 0; i < m.ejq.Len(); i++ {
		e := m.ejq.At(i)
		if e.at != now+1 {
			t.Fatalf("cycle %d: ejection FIFO entry %d due at %d, now %d", cycle, i, e.at, now)
		}
		if onLinks[e.node]++; onLinks[e.node] > m.routers[e.node].p.nEj {
			t.Fatalf("cycle %d router %d: %d flits on its %d ejection links",
				cycle, e.node, onLinks[e.node], m.routers[e.node].p.nEj)
		}
	}
	for id, r := range m.meshNet.routers {
		var arr, rc, va, sa uint64
		busy := 0
		for i := range r.inputs {
			ivc := &r.inputs[i]
			bit := uint64(1) << uint(i)
			nextAt := uint64(NeverCycle)
			if ivc.buf.Len() > 0 {
				nextAt = ivc.buf.Front().arrived
			}
			if ivc.nextAt != nextAt {
				t.Fatalf("cycle %d router %d input VC %d: cached nextAt %d, front flit says %d",
					cycle, id, i, ivc.nextAt, nextAt)
			}
			if ivc.state == vcIdle {
				if ivc.allowed != 0 {
					t.Fatalf("cycle %d router %d input VC %d: idle with allowed %#b", cycle, id, i, ivc.allowed)
				}
			} else if !allowedFromPlan(&m.vcs, ivc) {
				t.Fatalf("cycle %d router %d input VC %d (%v, out VC %d): allowed %#b is not its packet's plan mask",
					cycle, id, i, vcStateName(ivc.state), ivc.outVC, ivc.allowed)
			}
			switch ivc.state {
			case vcIdle:
				if ivc.buf.Len() > 0 {
					if nextAt > now {
						arr |= bit
					} else {
						rc |= bit
					}
				}
			case vcWaitVA:
				va |= bit
			case vcActive:
				sa |= bit
				// A grant readies its VC vaD (0 or 1) cycles on, so a VC
				// granted before the cycle just ticked is ready now.
				if ivc.readyAt > now+r.vaD {
					t.Fatalf("cycle %d router %d input VC %d: active with readyAt %d past now %d + vaD %d",
						cycle, id, i, ivc.readyAt, now, r.vaD)
				}
			}
			if ivc.buf.Len() > 0 || ivc.state != vcIdle {
				busy++
			}
		}
		if r.arrMask != arr || r.rcMask != rc || r.vaMask != va || r.saMask != sa {
			t.Fatalf("cycle %d router %d: masks arr=%#x rc=%#x va=%#x sa=%#x, VC state says arr=%#x rc=%#x va=%#x sa=%#x",
				cycle, id, r.arrMask, r.rcMask, r.vaMask, r.saMask, arr, rc, va, sa)
		}
		if r.busy() != (busy > 0) { // busy() is masks != 0
			t.Fatalf("cycle %d router %d: %d busy VCs but masks arr=%#x rc=%#x va=%#x sa=%#x",
				cycle, id, busy, r.arrMask, r.rcMask, r.vaMask, r.saMask)
		}
		if m.rtrActive.has(id) != r.busy() {
			t.Fatalf("cycle %d router %d: active-list bit %v, busy %v",
				cycle, id, m.rtrActive.has(id), r.busy())
		}
		// Only lost credits are queued, on rings that exist only with faults
		// enabled; a fault-free router never has a pull pending.
		var pend uint8
		for d, cc := range r.credIn {
			if cc != nil && cc.q.Len() > 0 {
				pend |= 1 << uint(d)
			}
		}
		if r.credPend != pend {
			t.Fatalf("cycle %d router %d: credPend %#b, withheld-credit rings say %#b", cycle, id, r.credPend, pend)
		}
		for port := 0; port < r.nOut; port++ {
			var free uint64
			for v := 0; v < r.p.numVCs; v++ {
				if r.outputs[r.inIdx(port, v)].owner < 0 {
					free |= 1 << uint(v)
				}
			}
			if r.outFree[port] != free {
				t.Fatalf("cycle %d router %d: outFree[%d] = %#b, owners say %#b", cycle, id, port, r.outFree[port], free)
			}
		}
		var writing uint64
		for i, w := range m.nis[id].writers {
			if w.pkt != nil {
				writing |= 1 << uint(i)
			}
		}
		if got := m.nis[id].writing; got != writing {
			t.Fatalf("cycle %d NI %d: writer mask %#b, writers say %#b", cycle, id, got, writing)
		}
		for k, req := range r.vaReq {
			if req != 0 {
				t.Fatalf("cycle %d router %d: VA request mask %d left at %#x between cycles", cycle, id, k, req)
			}
		}
		for out, req := range r.saReq {
			if req != 0 {
				t.Fatalf("cycle %d router %d: SA request mask %d left at %#x between cycles", cycle, id, out, req)
			}
		}
	}
}

// allowedFromPlan reports whether a VC in VC or switch allocation holds its
// packet's plan mask. A head waiting for VA was routed here, so the mask is
// the one for the packet's class and current phase. Once the head has moved
// on, the next router's NextHop may have flipped the phase, and the VC may
// be empty between flits, so an active VC holds a plan mask that contains
// its output VC, of the class of its front flit's packet when it has one.
func allowedFromPlan(plan *vcPlan, ivc *inVC) bool {
	if ivc.state == vcWaitVA {
		pkt := ivc.buf.Front().Pkt
		return ivc.allowed == plan.allowed(pkt.Class, pkt.YXPhase)
	}
	for class := TrafficClass(0); class < NumClasses; class++ {
		if ivc.buf.Len() > 0 && ivc.buf.Front().Pkt.Class != class {
			continue
		}
		for _, yx := range []bool{false, true} {
			if mask := plan.allowed(class, yx); ivc.allowed == mask && mask>>uint(ivc.outVC)&1 != 0 {
				return true
			}
		}
	}
	return false
}

// TestStageMasksMatchVCState drives seeded request/reply traffic through
// every backend — plus a checkerboard mesh, a fault-injected run (stuck VCs,
// delayed credits, retransmission), a router at the full 64-input-VC mask
// width and two-port MC ejection — and audits the stage masks and the
// ejection links after every Tick, through saturation and the drain back to
// an empty network.
func TestStageMasksMatchVCState(t *testing.T) {
	cfgs := backendConfigs()
	cb := DefaultConfig()
	cb.Checkerboard = true
	cb.Routing = RoutingCheckerboard
	cb.NumVCs = 4
	cb.MCs = CheckerboardPlacement(6, 6, 8)
	cb.MCInjPorts = 2
	cfgs["checkerboard"] = cb
	faulty := DefaultConfig()
	faulty.Fault = faulty.Fault.WithRate(0.002, 7)
	faulty.Fault.RetxTimeout = 512
	cfgs["fault"] = faulty
	wide := DefaultConfig()
	wide.NumVCs, wide.MCInjPorts = 8, 4 // MC routers use all 64 mask bits
	cfgs["wide-64"] = wide
	ej := DefaultConfig()
	ej.MCEjPorts = 2
	cfgs["ej-2"] = ej

	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			m := MustNewMesh(cfg)
			backend := m.Backend()
			comp, mcs := backend.ComputeNodes(), backend.MCs()
			rng := xrand.New(99)
			const inject, total = 1500, 12000
			cycle := 0
			for ; cycle < total && (cycle < inject || !m.Quiet()); cycle++ {
				if cycle < inject {
					for k := 0; k < 3; k++ {
						if k == 2 {
							m.TryInject(&Packet{Src: mcs[rng.Intn(len(mcs))], Dst: comp[rng.Intn(len(comp))],
								Class: ClassReply, Bytes: 64})
						} else {
							m.TryInject(&Packet{Src: comp[rng.Intn(len(comp))], Dst: mcs[rng.Intn(len(mcs))],
								Class: ClassRequest, Bytes: 8})
						}
					}
				}
				m.Tick()
				m.Delivered()
				checkStageMasks(t, m, cycle)
			}
			if !m.Quiet() {
				t.Fatalf("network did not drain within %d cycles", total)
			}
			if st := m.Stats(); st.FlitHops == 0 {
				t.Fatal("no traffic moved")
			}
			if name == "fault" {
				if st := m.Stats(); st.StuckVCFaults == 0 || st.LostCredits == 0 || st.Retransmits == 0 {
					t.Errorf("fault path never exercised: stuck=%d lostCred=%d retx=%d",
						st.StuckVCFaults, st.LostCredits, st.Retransmits)
				}
			}
		})
	}
}

// scanPickSAInput is the scan the rotated-window pick replaced: visit the
// port's VCs in (start+k)%n order and take the first eligible one.
func scanPickSAInput(r *router, in int, cycle uint64) (int, bool) {
	n := r.p.numVCs
	start := r.saInPtr[in]
	for k := 0; k < n; k++ {
		v := (start + k) % n
		ivc := &r.inputs[r.inIdx(in, v)]
		if ivc.state != vcActive || ivc.readyAt > cycle ||
			ivc.buf.Len() == 0 || ivc.buf.Front().arrived > cycle {
			continue
		}
		if !r.outputReady(ivc, cycle) {
			continue
		}
		r.saInPtr[in] = (v + 1) % n
		return r.inIdx(in, v), true
	}
	return 0, false
}

// TestPickSAInputMatchesScan is exhaustive over the round-robin input pick:
// for every VC count up to 8, every pointer position, every set of active
// VCs and every subset of them that is eligible this cycle, the
// rotated-window walk must return the same VC and leave the same pointer as
// the modular scan, whether a VC is held back by its allocation delay or by
// a front flit that has not come off the wire. As in step, a VC inside its
// allocation delay is left out of the visit mask the pick is given; the scan
// tests the delay itself. The pick is on the last input port, so the window
// also sits at a nonzero shift of saMask.
func TestPickSAInputMatchesScan(t *testing.T) {
	const cycle = 10
	for n := 1; n <= 8; n++ {
		p := routerParams{numVCs: n, bufDepth: 2, nInj: 1, nEj: 1, stages: 4}
		r := standaloneRouter(p)
		in := r.nIn - 1
		for v := 0; v < n; v++ {
			ivc := &r.inputs[r.inIdx(in, v)]
			ivc.buf.Push(Flit{Head: true, Tail: true})
			ivc.outPort, ivc.outVC = int(numDirs), 0 // ejection port: always ready
		}
		for start := 0; start < n; start++ {
			for active := uint64(0); active < 1<<uint(n); active++ {
				// Enumerate the subsets of active as the eligible sets.
				for elig := active; ; elig = (elig - 1) & active {
					r.saMask = active << uint(in*n)
					visit := r.saMask
					for v := 0; v < n; v++ {
						ivc := &r.inputs[r.inIdx(in, v)]
						ivc.state = vcIdle
						if active>>uint(v)&1 != 0 {
							ivc.state = vcActive
						}
						// Ineligible VCs alternate between the two gates: an
						// allocation delay, or a front flit still on the wire.
						ivc.readyAt, ivc.nextAt = cycle, cycle
						if elig>>uint(v)&1 == 0 {
							if v%2 == 0 {
								ivc.readyAt = cycle + 1
								visit &^= 1 << uint(r.inIdx(in, v))
							} else {
								ivc.nextAt = cycle + 1
							}
						}
						ivc.buf.Front().arrived = ivc.nextAt
					}
					r.saInPtr[in] = start
					wantIdx, wantOK := scanPickSAInput(r, in, cycle)
					wantPtr := r.saInPtr[in]
					r.saInPtr[in] = start
					gotIdx, gotOK := r.pickSAInput(in, visit>>uint(in*n), cycle)
					if gotIdx != wantIdx || gotOK != wantOK || r.saInPtr[in] != wantPtr {
						t.Fatalf("n=%d start=%d active=%#b eligible=%#b: pick (%d,%v) ptr %d, scan (%d,%v) ptr %d",
							n, start, active, elig, gotIdx, gotOK, r.saInPtr[in], wantIdx, wantOK, wantPtr)
					}
					if elig == 0 {
						break
					}
				}
			}
		}
	}
}

// scanVCSet is the ordered VC set the plan's masks replaced, built as
// buildVCPlan once listed it: numVCs/div consecutive VCs upwards from the
// (class, phase) base.
func scanVCSet(numVCs int, split bool, phases int, class TrafficClass, yx bool) []int {
	div := 1
	if split {
		div *= 2
	}
	if phases > 1 {
		div *= 2
	}
	per, base := numVCs/div, 0
	if split {
		base += int(class) * (numVCs / 2)
	}
	if phases > 1 && yx {
		base += per
	}
	set := make([]int, per)
	for i := range set {
		set[i] = base + i
	}
	return set
}

// TestVAMaskPickMatchesScan is exhaustive over the VA bid: for every VC
// count up to 8, every buildVCPlan shape (class split or not, one or two
// routing phases), every class and phase, every output port and every
// subset of that port's VCs already owned, one waiting VC must be granted
// exactly the first free VC of the plan's ordered set, or nothing when the
// set has no free VC.
func TestVAMaskPickMatchesScan(t *testing.T) {
	const cycle = 10
	for n := 1; n <= 8; n++ {
		p := routerParams{numVCs: n, bufDepth: 2, nInj: 1, nEj: 1, stages: 4}
		r := standaloneRouter(p)
		const idx = 0
		ivc := &r.inputs[idx]
		for _, split := range []bool{false, true} {
			for phases := 1; phases <= 2; phases++ {
				plan, err := buildVCPlan(n, split, phases)
				if err != nil {
					continue // n not divisible across the shape's sets
				}
				for class := TrafficClass(0); class < NumClasses; class++ {
					for _, yx := range []bool{false, true} {
						set := scanVCSet(n, split, phases, class, yx)
						for port := 0; port < r.nOut; port++ {
							for owned := uint64(0); owned < 1<<uint(n); owned++ {
								for v := 0; v < n; v++ {
									r.outputs[r.inIdx(port, v)].owner = -1
									if owned>>uint(v)&1 != 0 {
										r.outputs[r.inIdx(port, v)].owner = r.nIn*n - 1
									}
								}
								r.outFree[port] = (uint64(1)<<uint(n) - 1) &^ owned
								want := -1
								for _, v := range set {
									if r.outputs[r.inIdx(port, v)].owner < 0 {
										want = v
										break
									}
								}
								*ivc = inVC{buf: ivc.buf, state: vcWaitVA, outPort: port,
									allowed: plan.allowed(class, yx), readyAt: cycle}
								r.vaMask, r.saMask = 1<<idx, 0
								granted := r.vcAllocate(r.vaMask, cycle)
								got := -1
								if granted != 0 {
									got = ivc.outVC
								}
								if got != want || (want >= 0) != (granted == 1<<idx) {
									t.Fatalf("n=%d split=%v phases=%d %v yx=%v port %d owned=%#b: granted %#b VC %d, scan wants VC %d",
										n, split, phases, class, yx, port, owned, granted, got, want)
								}
								if want >= 0 && (r.outputs[r.inIdx(port, want)].owner != idx ||
									r.outFree[port]>>uint(want)&1 != 0 || r.saMask != 1<<idx || r.vaMask != 0) {
									t.Fatalf("n=%d port %d owned=%#b: grant of VC %d not recorded: outFree %#b", n, port, owned, want, r.outFree[port])
								}
							}
						}
					}
				}
			}
		}
	}
}
