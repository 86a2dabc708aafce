package mem

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/noc"
	"repro/internal/xrand"
)

// sinkNet accepts every reply and recycles it at once, so a benchmark
// times the MC node and nothing behind its injection port.
type sinkNet struct {
	noc.Network
	pool *noc.PacketPool
}

func (s *sinkNet) TryInject(p *noc.Packet) bool { s.pool.Put(p); return true }

// BenchmarkMCNode measures one interconnect cycle of a memory-controller
// node (one op = one TickIcnt plus the 1107/602 share of TickDRAM calls at
// the paper's clock ratio). The node is fed a steady stream from a fixed
// table: 80 % line reads scattered over four L2 capacities of this MC's
// lines (L2 hits, MSHR merges and FR-FCFS traffic over all banks) and 20 %
// write-backs. The stream keeps at most eight requests waiting, so the
// queues stay at their working size and allocs/op is the node's own heap
// traffic; CI gates it at zero.
func BenchmarkMCNode(b *testing.B) {
	cfg := DefaultConfig()
	mapper := addr.MustNewMapper(addr.Config{})
	m := MustNew(cfg, 1, mapper)
	pool := &noc.PacketPool{}
	m.SetPool(pool)
	net := &sinkNet{pool: pool}

	rng := xrand.New(1)
	lines := 4 * cfg.L2.SizeBytes / cfg.L2.LineBytes
	stream := make([]noc.Packet, 4096)
	for i := range stream {
		// Interleave units of 256 B stride over the MCs; stay on MC 0.
		a := addr.Address(rng.Intn(lines)/4*addr.DefaultInterleaveBytes*addr.DefaultNumMCs +
			rng.Intn(4)*cfg.L2.LineBytes)
		write := rng.Bool(0.2)
		stream[i] = *reqPacket(a, write, noc.NodeID(rng.Intn(28)))
	}

	next, dramAcc := 0, 0
	cycle := uint64(0)
	tick := func() {
		cycle++
		if m.inQ.Len() < 8 {
			m.AcceptRequest(&stream[next])
			next = (next + 1) % len(stream)
		}
		m.TickIcnt(cycle, net)
		for dramAcc += 1107; dramAcc >= 602; dramAcc -= 602 {
			m.TickDRAM()
		}
	}
	for i := 0; i < 200_000; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/mc-cycle")
}
