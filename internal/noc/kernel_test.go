package noc

import (
	"testing"

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

// TestChannelPartialDelivery checks stamp-gated visibility: a sent flit sits
// in the downstream buffer at once, but the VC stays on arrMask — and out of
// route computation — until the cycle its head comes off the wire, and later
// flits stay invisible behind it.
func TestChannelPartialDelivery(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	ch := m.routers[0].outChans[East]
	r := ch.dst
	idx := r.inIdx(ch.dstPort, 0)
	ivc := &r.inputs[idx]
	for _, at := range []uint64{3, 5, 9} {
		ch.send(Flit{VC: 0, Head: true, Tail: true, arrived: at}, 1)
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

// TestCreditChannelOutOfOrderDues checks the credit pull with non-monotonic
// due times (the fault model's resync delay): due credits are returned even
// when queued behind later ones, the remainder is compacted in order, and the
// port stays flagged on credPend exactly while credits are queued.
func TestCreditChannelOutOfOrderDues(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	cc := m.routers[0].credIn[East]
	r := cc.dst
	out := &r.outputs[r.inIdx(cc.dstPort, 0)]
	out.credits = 0 // make room so returned credits are countable
	for _, due := range []uint64{5, 2, 9, 1} {
		cc.send(0, due)
	}
	flag := uint8(1) << uint(cc.dstPort)
	if r.credIn[cc.dstPort] != cc || r.credPend != flag {
		t.Fatalf("after send: credPend %#b, want %#b on the link's own output port", r.credPend, flag)
	}
	r.pullCredits(4)
	if out.credits != 2 {
		t.Fatalf("credits after cycle 4 = %d, want 2 (dues 2 and 1)", out.credits)
	}
	if cc.q.Len() != 2 || cc.q.At(0).due != 5 || cc.q.At(1).due != 9 || r.credPend != flag {
		t.Fatalf("remainder not compacted in order: len %d, credPend %#b", cc.q.Len(), r.credPend)
	}
	r.pullCredits(9)
	if out.credits != 4 || cc.q.Len() != 0 || r.credPend != 0 {
		t.Fatalf("after cycle 9: credits %d (want 4), queued %d (want 0), credPend %#b (want 0)",
			out.credits, cc.q.Len(), r.credPend)
	}
}

// TestDrainEjectedPartial checks drainEjected visits only matured flits and
// keeps the ejection-work counter consistent across partial drains.
func TestDrainEjectedPartial(t *testing.T) {
	m := MustNewMesh(DefaultConfig())
	r := m.meshNet.routers[0]
	for _, due := range []uint64{1, 2, 5} {
		r.ejQ[0].Push(Flit{Head: true, Tail: true, arrived: due})
		r.ejCount++
	}
	visits := 0
	r.drainEjected(2, func(Flit) { visits++ })
	if visits != 2 || r.ejCount != 1 || r.ejQ[0].Len() != 1 {
		t.Fatalf("partial drain: visits=%d ejCount=%d queued=%d, want 2/1/1",
			visits, r.ejCount, r.ejQ[0].Len())
	}
	r.drainEjected(5, func(Flit) { visits++ })
	if visits != 3 || r.ejCount != 0 || r.ejQ[0].Len() != 0 {
		t.Fatalf("final drain: visits=%d ejCount=%d queued=%d, want 3/0/0",
			visits, r.ejCount, r.ejQ[0].Len())
	}
}
