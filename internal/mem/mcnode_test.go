package mem

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/noc"
)

func newTestMC(t *testing.T) *MCNode {
	t.Helper()
	m, err := New(DefaultConfig(), 1, addr.MustNewMapper(addr.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func reqPacket(line addr.Address, write bool, src noc.NodeID) *noc.Packet {
	bytes := ReadRequestBytes
	if write {
		bytes = WriteRequestBytes
	}
	return &noc.Packet{Src: src, Dst: 1, Class: noc.ClassRequest, Bytes: bytes,
		Line: uint64(line), Write: write}
}

// run drives the MC with a perfect network for n icnt cycles, ticking DRAM
// at roughly the paper's clock ratio, and returns delivered replies.
func run(t *testing.T, m *MCNode, net noc.Network, cycles int) []*noc.Packet {
	t.Helper()
	var replies []*noc.Packet
	dramAcc := 0.0
	for c := uint64(1); c <= uint64(cycles); c++ {
		m.TickIcnt(c, net)
		dramAcc += 1107.0 / 602.0
		for ; dramAcc >= 1; dramAcc-- {
			m.TickDRAM()
		}
		net.Tick()
		replies = append(replies, net.Delivered()...)
	}
	return replies
}

func TestValidation(t *testing.T) {
	mapper := addr.MustNewMapper(addr.Config{})
	cfg := DefaultConfig()
	cfg.L2MSHRs = 0
	if _, err := New(cfg, 1, mapper); err == nil {
		t.Error("zero L2 MSHRs accepted")
	}
	cfg = DefaultConfig()
	cfg.L2.Ways = 0
	if _, err := New(cfg, 1, mapper); err == nil {
		t.Error("bad L2 config accepted")
	}
}

func TestAcceptRequiresRequestClass(t *testing.T) {
	m := newTestMC(t)
	defer func() {
		if recover() == nil {
			t.Error("non-request packet accepted")
		}
	}()
	m.AcceptRequest(&noc.Packet{Class: noc.ClassReply})
}

func TestReadMissProducesReply(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	m.AcceptRequest(reqPacket(0x40*8, false, 7))
	replies := run(t, m, net, 500)
	if len(replies) != 1 {
		t.Fatalf("got %d replies, want 1", len(replies))
	}
	r := replies[0]
	if r.Dst != 7 || r.Class != noc.ClassReply || r.Bytes != ReplyBytes {
		t.Errorf("reply = %+v", r)
	}
	if m.Busy() {
		t.Error("MC still busy after completion")
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	line := addr.Address(0x80 * 8)
	m.AcceptRequest(reqPacket(line, false, 3))
	run(t, m, net, 500) // warm the L2
	missCycles := m.Stats().Cycles

	// Second access to the same line: L2 hit.
	m.AcceptRequest(reqPacket(line, false, 3))
	start := m.Stats().Cycles
	net2 := noc.MustNewIdeal(36, 16, 0)
	for c := start + 1; ; c++ {
		m.TickIcnt(c, net2)
		net2.Tick()
		if d := net2.Delivered(); len(d) > 0 {
			if d[0].Dst != 3 {
				t.Fatalf("hit reply went to node %d, want 3", d[0].Dst)
			}
			hitLatency := c - start
			if hitLatency > m.cfg.L2Latency+5 {
				t.Errorf("L2 hit took %d cycles, want ~%d", hitLatency, m.cfg.L2Latency)
			}
			break
		}
		if c > start+1000 {
			t.Fatal("hit reply never produced")
		}
	}
	_ = missCycles
	if m.L2Stats().Hits == 0 {
		t.Error("no L2 hit recorded")
	}
}

func TestL2MSHRMerging(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	line := addr.Address(0x1000 * 8)
	// Two cores request the same line before DRAM returns: one DRAM read,
	// two replies.
	m.AcceptRequest(reqPacket(line, false, 2))
	m.AcceptRequest(reqPacket(line, false, 5))
	replies := run(t, m, net, 500)
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want 2", len(replies))
	}
	dsts := map[noc.NodeID]bool{replies[0].Dst: true, replies[1].Dst: true}
	if !dsts[2] || !dsts[5] {
		t.Errorf("reply destinations %v, want {2,5}", dsts)
	}
	// Every DRAM burst holds the bus for one burst length.
	if got := m.DRAMStats().BusBusyCycles / m.cfg.DRAM.Timing.Bust; got != 1 {
		t.Errorf("DRAM bursts = %d, want 1 read (merged)", got)
	}
}

func TestWriteNoReply(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	line := addr.Address(0x40 * 8)
	m.AcceptRequest(reqPacket(line, true, 4))
	replies := run(t, m, net, 300)
	if len(replies) != 0 {
		t.Errorf("write produced %d replies, want 0", len(replies))
	}
	// One L2 access, which write-validates the line without a DRAM fetch.
	if st := m.L2Stats(); st.Hits+st.Misses != 1 || !m.l2.Probe(line) {
		t.Errorf("L2 accesses = %d, line resident %v; want 1 access leaving the line resident",
			st.Hits+st.Misses, m.l2.Probe(line))
	}
	if m.DRAMStats().BusBusyCycles != 0 {
		t.Error("a write-validated line touched DRAM")
	}
}

func TestL2EvictionWritesToDRAM(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	// Write enough distinct lines to overflow the 128 KB L2 (2048 lines).
	// All addresses map to MC-local space; stride keeps them in this MC.
	for i := 0; i < 4096; i++ {
		m.AcceptRequest(reqPacket(addr.Address(i*64*8), true, 2))
	}
	run(t, m, net, 30000)
	if m.Busy() {
		t.Fatal("MC did not drain")
	}
	// Write-validation fetches nothing, so every DRAM burst is a write-back.
	if m.DRAMStats().BusBusyCycles == 0 {
		t.Error("L2 overflow produced no DRAM writes")
	}
}

// blockedNet refuses all injections, for stall accounting tests.
type blockedNet struct{ noc.Network }

func (b blockedNet) TryInject(*noc.Packet) bool                  { return false }
func (b blockedNet) CanInject(noc.NodeID, noc.TrafficClass) bool { return false }

func TestStallAccounting(t *testing.T) {
	m := newTestMC(t)
	inner := noc.MustNewIdeal(36, 16, 0)
	m.AcceptRequest(reqPacket(0x40*8, false, 7))
	// Service with a network that refuses replies.
	blocked := blockedNet{inner}
	dramAcc := 0.0
	for c := uint64(1); c <= 500; c++ {
		m.TickIcnt(c, blocked)
		dramAcc += 1107.0 / 602.0
		for ; dramAcc >= 1; dramAcc-- {
			m.TickDRAM()
		}
	}
	st := m.Stats()
	if st.StallCycles == 0 {
		t.Error("no stall cycles recorded against a blocked network")
	}
	if st.StallFraction() <= 0 || st.StallFraction() > 1 {
		t.Errorf("stall fraction = %v", st.StallFraction())
	}
	if n := inner.Stats().InjectedPackets[m.node]; n != 0 || !m.Busy() {
		t.Errorf("%d replies reached the network behind the block (MC busy %v); want the reply held", n, m.Busy())
	}
}

func TestManyRequestsAllServed(t *testing.T) {
	m := newTestMC(t)
	net := noc.MustNewIdeal(36, 16, 0)
	const n = 300
	for i := 0; i < n; i++ {
		m.AcceptRequest(reqPacket(addr.Address(i*64*8), false, noc.NodeID(i%28)))
	}
	replies := run(t, m, net, 50000)
	if len(replies) != n {
		t.Fatalf("served %d/%d requests", len(replies), n)
	}
	if m.Busy() {
		t.Error("MC busy after serving everything")
	}
}
