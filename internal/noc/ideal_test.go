package noc

import (
	"testing"
	"testing/quick"
)

func TestIdealValidation(t *testing.T) {
	if _, err := NewIdeal(0, 16, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewIdeal(36, 0, 0); err == nil {
		t.Error("zero flit size accepted")
	}
}

func TestPerfectNetworkSameCycleDelivery(t *testing.T) {
	n := MustNewIdeal(36, 16, 0) // uncapped = perfect
	for i := 0; i < 100; i++ {
		n.TryInject(&Packet{Src: 0, Dst: 35, Class: ClassReply, Bytes: 64})
	}
	n.Tick()
	got := n.Delivered()
	if len(got) != 100 {
		t.Fatalf("perfect network delivered %d/100 in one cycle", len(got))
	}
	for _, p := range got {
		if p.NetworkLatency() != 0 {
			t.Fatalf("perfect network latency = %d, want 0", p.NetworkLatency())
		}
	}
	if !n.Quiet() {
		t.Error("network should be quiet")
	}
}

func TestIdealBandwidthCap(t *testing.T) {
	// Cap of 8 flits/cycle with 4-flit packets => 2 packets/cycle.
	n := MustNewIdeal(36, 16, 8)
	const pkts = 20
	for i := 0; i < pkts; i++ {
		n.TryInject(&Packet{Src: NodeID(i % 8), Dst: 35, Class: ClassReply, Bytes: 64})
	}
	perCycle := []int{}
	for c := 0; c < 15 && !n.Quiet(); c++ {
		n.Tick()
		perCycle = append(perCycle, len(n.Delivered()))
	}
	if !n.Quiet() {
		t.Fatal("did not drain")
	}
	total := 0
	for i, c := range perCycle {
		total += c
		if c > 2 {
			t.Errorf("cycle %d delivered %d packets, cap allows 2", i, c)
		}
	}
	if total != pkts {
		t.Errorf("delivered %d/%d", total, pkts)
	}
	if len(perCycle) < 10 {
		t.Errorf("drained in %d cycles, cap should need 10", len(perCycle))
	}
}

func TestIdealFractionalBudgetCarries(t *testing.T) {
	// Cap 0.5 flits/cycle with 1-flit packets => one packet every 2 cycles.
	n := MustNewIdeal(4, 16, 0.5)
	for i := 0; i < 5; i++ {
		n.TryInject(&Packet{Src: 0, Dst: 1, Class: ClassRequest, Bytes: 8})
	}
	delivered := 0
	cycles := 0
	for ; cycles < 100 && !n.Quiet(); cycles++ {
		n.Tick()
		delivered += len(n.Delivered())
	}
	if delivered != 5 {
		t.Fatalf("delivered %d/5", delivered)
	}
	if cycles < 9 {
		t.Errorf("drained in %d cycles; 0.5 flits/cycle needs ~10", cycles)
	}
}

func TestIdealLargePacketNotStarved(t *testing.T) {
	// A packet larger than the per-cycle budget must still go through
	// (budget overdraws and recovers).
	n := MustNewIdeal(4, 16, 1)
	n.TryInject(&Packet{Src: 0, Dst: 1, Class: ClassReply, Bytes: 64}) // 4 flits
	for c := 0; c < 10 && !n.Quiet(); c++ {
		n.Tick()
	}
	if !n.Quiet() {
		t.Fatal("large packet starved by small budget")
	}
}

func TestIdealFIFOAcrossSources(t *testing.T) {
	n := MustNewIdeal(8, 16, 1)
	a := &Packet{Src: 0, Dst: 7, Class: ClassRequest, Bytes: 8, Line: 'a'}
	b := &Packet{Src: 1, Dst: 7, Class: ClassRequest, Bytes: 8, Line: 'b'}
	n.TryInject(a)
	n.TryInject(b)
	n.Tick()
	first := n.Delivered()
	if len(first) != 1 || first[0].Line != 'a' {
		t.Errorf("first delivery = %v, want a", first)
	}
}

func TestIdealPropertyConservation(t *testing.T) {
	f := func(seed uint64, capRaw uint8, count uint8) bool {
		capFlits := float64(capRaw%16) / 2 // 0 .. 7.5 (0 = perfect)
		n := MustNewIdeal(16, 16, capFlits)
		want := int(count)%100 + 1
		for i := 0; i < want; i++ {
			n.TryInject(&Packet{Src: NodeID(i % 16), Dst: NodeID((i + 1) % 16),
				Class: ClassRequest, Bytes: 8 + int(seed%64)})
		}
		got := 0
		for c := 0; c < 10000 && !n.Quiet(); c++ {
			n.Tick()
			got += len(n.Delivered())
		}
		return n.Quiet() && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
