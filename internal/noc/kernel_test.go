package noc

import (
	"testing"
	"unsafe"

	"repro/internal/xrand"
)

// pickRR is the bid-list allocator pick that pickRRMask replaced, kept as its
// oracle: choose the first bidder at or after *ptr in cyclic order over the
// index space [0, n), then advance the pointer past the winner. Bidders are
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

// refPickRR is an obviously-correct reference for pickRR: scan the cyclic
// order starting at the pointer and return the first bidder.
func refPickRR(bidders []int, ptr, n int) int {
	has := make(map[int]bool, len(bidders))
	for _, b := range bidders {
		has[b] = true
	}
	for o := 0; o < n; o++ {
		if idx := (ptr + o) % n; has[idx] {
			return idx
		}
	}
	return -1
}

// TestPickRRMatchesReference exercises pickRR over every pointer position
// (including the post-win resting value n, which behaves as 0) and random
// bidder sets, for several index-space sizes.
func TestPickRRMatchesReference(t *testing.T) {
	rng := xrand.New(42)
	for _, n := range []int{2, 4, 9, 24} {
		for ptr := 0; ptr <= n; ptr++ {
			for trial := 0; trial < 20; trial++ {
				var bidders []int
				for b := 0; b < n; b++ {
					if rng.Intn(3) == 0 {
						bidders = append(bidders, b)
					}
				}
				if len(bidders) == 0 {
					bidders = append(bidders, rng.Intn(n))
				}
				p := ptr
				got := pickRR(bidders, &p, n)
				want := refPickRR(bidders, ptr, n)
				if got != want {
					t.Fatalf("pickRR(n=%d, ptr=%d, %v) = %d, want %d", n, ptr, bidders, got, want)
				}
				if p != got+1 {
					t.Fatalf("pointer after win = %d, want %d", p, got+1)
				}
			}
		}
	}
}

// TestPickRRWrapAfterLastIndexWin is the regression for the old 1<<20 wrap
// sentinel: after a win at index n-1 the pointer rests at n, and the next
// allocation must treat every bidder as wrapped, preferring index 0.
func TestPickRRWrapAfterLastIndexWin(t *testing.T) {
	n := 6
	ptr := 0
	if got := pickRR([]int{n - 1}, &ptr, n); got != n-1 {
		t.Fatalf("first pick = %d, want %d", got, n-1)
	}
	if ptr != n {
		t.Fatalf("pointer = %d, want %d", ptr, n)
	}
	if got := pickRR([]int{0, 2, n - 1}, &ptr, n); got != 0 {
		t.Fatalf("wrapped pick = %d, want 0 (cyclic restart)", got)
	}
}

// TestPickRRMaskMatchesPickRR is exhaustive over the mask pick: for every
// index-space size up to 8, every pointer resting position 0..n and every
// non-empty bidder subset, pickRRMask must choose the bidder and leave the
// pointer that the bid-list scan does. The 63- and 64-wide cases cover the
// shift edges: a pointer of 64 shifts every bidder out, which must wrap.
func TestPickRRMaskMatchesPickRR(t *testing.T) {
	check := func(n, ptr int, mask uint64) {
		t.Helper()
		var bidders []int
		for b := 0; b < n; b++ {
			if mask>>uint(b)&1 != 0 {
				bidders = append(bidders, b)
			}
		}
		wantPtr, gotPtr := ptr, ptr
		want := pickRR(bidders, &wantPtr, n)
		got := pickRRMask(mask, &gotPtr)
		if got != want || gotPtr != wantPtr {
			t.Fatalf("n=%d ptr=%d mask=%#x: pickRRMask = %d (ptr %d), pickRR = %d (ptr %d)",
				n, ptr, mask, got, gotPtr, want, wantPtr)
		}
	}
	for n := 1; n <= 8; n++ {
		for ptr := 0; ptr <= n; ptr++ {
			for mask := uint64(1); mask < 1<<uint(n); mask++ {
				check(n, ptr, mask)
			}
		}
	}
	rng := xrand.New(7)
	for _, n := range []int{63, 64} {
		top := uint64(1) << uint(n-1)
		for ptr := 0; ptr <= n; ptr++ {
			for _, mask := range []uint64{1, top, top | 1, top>>1 | 2, ^uint64(0) >> uint(64-n)} {
				check(n, ptr, mask)
			}
			for trial := 0; trial < 50; trial++ {
				if mask := rng.Uint64() >> uint(64-n); mask != 0 {
					check(n, ptr, mask)
				}
			}
		}
	}
}

// TestChannelPartialDelivery checks stamp-gated visibility on a link: a sent
// flit, deposited through the upstream router's downVCs window, sits in the
// downstream buffer at once, but the VC stays on arrMask — and out of route
// computation — until the cycle its head comes off the wire, and later flits
// stay invisible behind it. Only the deposit onto the idle, empty VC wakes
// the downstream router.
func TestChannelPartialDelivery(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	up := m.routers[0]
	r := up.downRtr[East]
	ivc := &up.downVCs[East][0]
	idx := r.inIdx(ivc.port, 0)
	if ivc.port != int(West) || &r.inputs[idx] != ivc {
		t.Fatalf("router 0's east window is port %d of router %d, want the west input VCs", ivc.port, r.p.node)
	}
	for _, at := range []uint64{3, 5, 9} {
		if woke := ivc.deposit(Flit{VC: 0, Head: true, Tail: true, arrived: at}); woke != (at == 3) {
			t.Fatalf("deposit stamped %d: woke %v, want only the first onto an idle, empty VC to wake", at, woke)
		} else if woke {
			r.wake(ivc, 1)
		}
	}
	bit := uint64(1) << uint(idx)
	if ivc.buf.Len() != 3 || ivc.nextAt != 3 || r.arrMask != bit || r.rcMask != 0 {
		t.Fatalf("after send: buffered %d nextAt %d arrMask %#x rcMask %#x, want 3/3/%#x/0",
			ivc.buf.Len(), ivc.nextAt, r.arrMask, r.rcMask, bit)
	}
	if !r.busy() || r.working() || !m.rtrActive.has(int(r.p.node)) {
		t.Fatalf("router with a flit on the wire: busy %v working %v active %v, want true/false/true",
			r.busy(), r.working(), m.rtrActive.has(int(r.p.node)))
	}
	if got := m.NextWorkCycle(); got != 3 {
		t.Fatalf("NextWorkCycle = %d, want the head's arrival cycle 3", got)
	}
	r.promoteArrived(2)
	if r.arrMask != bit || r.rcMask != 0 {
		t.Fatalf("before the stamp: arrMask %#x rcMask %#x, want %#x/0", r.arrMask, r.rcMask, bit)
	}
	r.promoteArrived(3)
	if r.arrMask != 0 || r.rcMask != bit {
		t.Fatalf("at the stamp: arrMask %#x rcMask %#x, want 0/%#x", r.arrMask, r.rcMask, bit)
	}
}

// creditLink returns a fresh network's link from router 0 eastwards: the
// upstream router, the downstream router, and its input VC 0 on the link
// filled to the buffer depth with single-flit packets that have already
// arrived.
func creditLink(cfg Config) (up, down *router, ivc *inVC) {
	m := MustNewMesh(cfg)
	up = m.routers[0]
	down = up.downRtr[East]
	ivc = &up.downVCs[East][0]
	for i := 0; i < cfg.BufDepth; i++ {
		if ivc.deposit(Flit{Pkt: &Packet{}, Head: true, Tail: true, arrived: 1}) {
			down.wake(ivc, 0)
		}
	}
	return up, down, ivc
}

// TestCreditChannelOutOfOrderDues checks that lost and derived credits come
// back out of order: a slot whose credit was lost stays withheld for the
// resync window while the slot of a later pop returns after the credit
// latency, the return ring is pulled front first, and the port stays flagged
// on credPend exactly while lost credits are queued.
func TestCreditChannelOutOfOrderDues(t *testing.T) {
	const credLat, resync = 2, 6
	cfg := DefaultConfig()
	cfg.CreditLatency = credLat
	cfg.Fault = cfg.Fault.WithRate(0.5, 1) // builds the lost-credit rings
	cfg.Fault.CreditResyncCycles = resync
	up, down, ivc := creditLink(cfg)
	cc := down.credChans[West]
	if cc == nil || up.credIn[East] != cc {
		t.Fatal("no lost-credit ring between the link's two routers")
	}
	// Pops at cycles 10 (credit lost), 11 (derived) and 12 (lost).
	for _, pop := range []struct {
		cycle uint64
		lost  bool
	}{{10, true}, {11, false}, {12, true}} {
		ivc.buf.Pop()
		if pop.lost {
			cc.withhold(0, pop.cycle+credLat+resync)
		} else {
			ivc.notePop(pop.cycle)
		}
	}
	flag := uint8(1) << uint(East)
	if up.credPend != flag || cc.q.Len() != 2 || ivc.withheld != 2 {
		t.Fatalf("after the pops: credPend %#b (want %#b), %d queued (want 2)", up.credPend, flag, cc.q.Len())
	}
	// Free slots as the upstream router's step sees them: pull, then read.
	// The derived credit of the pop at 11 is back at 13, ahead of the lost
	// credit of the pop at 10 (due 18); the one from 12 follows at 20.
	want := map[uint64]int{12: 0, 13: 1, 17: 1, 18: 2, 19: 2, 20: 3}
	for cycle := uint64(12); cycle <= 20; cycle++ {
		up.pullCredits(cycle)
		w, ok := want[cycle]
		if got := up.freeSlots(ivc, cycle); ok && got != w {
			t.Fatalf("cycle %d: %d free slots, want %d", cycle, got, w)
		}
		if queued := cc.q.Len(); (up.credPend != 0) != (queued > 0) {
			t.Fatalf("cycle %d: credPend %#b with %d credits queued", cycle, up.credPend, queued)
		}
		if cycle == 18 && (cc.q.Len() != 1 || cc.q.Front().due != 20) {
			t.Fatalf("cycle 18: ring not pulled front first: len %d", cc.q.Len())
		}
	}
	if cc.q.Len() != 0 || up.credPend != 0 || ivc.withheld != 0 {
		t.Fatalf("after cycle 20: %d queued, credPend %#b, want an empty ring", cc.q.Len(), up.credPend)
	}
}

// TestDerivedCreditTiming pins the credit loop on one link: with the
// downstream VC full, a pop at cycle c opens the upstream output at exactly
// c+L for credit latencies L of 1, 2, 5 and the full 64-cycle pop window,
// and a credit the fault model loses opens it at exactly c+L+R, R being the
// resync window.
func TestDerivedCreditTiming(t *testing.T) {
	const c, resync = 100, 7
	for _, credLat := range []uint64{1, 2, 5, 64} {
		for _, lost := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.CreditLatency = credLat
			if lost {
				cfg.Fault = cfg.Fault.WithRate(0.5, 1)
				cfg.Fault.CreditResyncCycles = resync
			}
			up, down, ivc := creditLink(cfg)
			if up.freeSlots(ivc, c) > 0 {
				t.Fatalf("L=%d: output ready into a full VC", credLat)
			}
			ivc.buf.Pop()
			opens := c + credLat
			if lost {
				down.credChans[West].withhold(0, c+credLat+resync)
				opens += resync
			} else {
				down.releaseSlot(ivc, c)
			}
			for cycle := uint64(c); cycle <= opens+1; cycle++ {
				up.pullCredits(cycle)
				if got := up.freeSlots(ivc, cycle) > 0; got != (cycle >= opens) {
					t.Fatalf("L=%d lost=%v: output ready %v at cycle %d, want it to open at %d",
						credLat, lost, got, cycle, opens)
				}
			}
		}
	}
}

// TestEjectionFIFODue checks the eject phase takes only the flits due by the
// current cycle: a flit stamped for a later cycle stays on the FIFO and keeps
// the next tick a work cycle. The packet is assembled at its last flit.
func TestEjectionFIFODue(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	n := &m.meshNet
	pkt := &Packet{flits: 3}
	for _, at := range []uint64{2, 3, 5} {
		n.ejq.Push(ejFlit{pkt: pkt, at: at})
	}
	n.active, n.cycle = 1, 1
	for _, want := range []struct {
		cycle          uint64
		ejected, queue int
	}{{2, 1, 2}, {3, 2, 1}, {4, 2, 1}, {5, 3, 0}} {
		m.Tick()
		got := int(n.stats.EjectedFlits[0])
		if n.cycle != want.cycle || got != want.ejected || n.ejq.Len() != want.queue {
			t.Fatalf("cycle %d: ejected %d, queued %d; want cycle %d, %d/%d",
				n.cycle, got, n.ejq.Len(), want.cycle, want.ejected, want.queue)
		}
		if want.queue > 0 && m.NextWorkCycle() != n.cycle+1 {
			t.Fatalf("cycle %d: NextWorkCycle %d with flits on the ejection link", n.cycle, m.NextWorkCycle())
		}
	}
	if d := m.Delivered(); len(d) != 1 || d[0] != pkt || pkt.ArrivedAt != 5 || !m.Quiet() {
		t.Fatalf("delivered %v (ArrivedAt %d, quiet %v), want the packet at cycle 5", d, pkt.ArrivedAt, m.Quiet())
	}
}

// TestEjectionBackToBack sends one 4-flit packet a hop to node 0 and records
// the cycle each flit reaches the NI: the ejection port never makes a flit
// wait, so they eject on consecutive cycles. After every tick the flit that
// traversed in it is the only one on the FIFO, due the next cycle.
func TestEjectionBackToBack(t *testing.T) {
	cfg := DefaultConfig()
	m := MustNewMesh(cfg)
	n := &m.meshNet
	if !m.TryInject(&Packet{Src: 1, Dst: 0, Class: ClassReply, Bytes: 4 * cfg.FlitBytes}) {
		t.Fatal("inject refused")
	}
	var at []uint64
	for !m.Quiet() && n.cycle < 100 {
		before := n.stats.EjectedFlits[0]
		m.Tick()
		if n.stats.EjectedFlits[0] > before {
			at = append(at, n.cycle)
		}
		if q := n.ejq.Len(); q > 1 || (q > 0 && n.ejq.Front().at != n.cycle+1) {
			t.Fatalf("cycle %d: %d flits on the ejection link", n.cycle, q)
		}
	}
	if len(at) != 4 {
		t.Fatalf("%d flits ejected, want 4", len(at))
	}
	for i := range at {
		if at[i] != at[0]+uint64(i) {
			t.Fatalf("eject cycles %v, want consecutive", at)
		}
	}
}

// TestPacketSize pins Packet at 136 bytes: the ejected count shares a word
// with the flit count, and the payload is typed, not boxed.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 136 {
		t.Fatalf("Packet is %d bytes, want at most 136", got)
	}
}
