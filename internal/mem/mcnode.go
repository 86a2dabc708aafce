// Package mem implements the memory-controller nodes of the baseline
// architecture (Fig 5): each MC tile ejects request packets from the NoC,
// services them in a shared L2 bank, schedules misses into a GDDR3 channel
// (FR-FCFS), and injects 64-byte read-reply packets back into the network.
//
// The reply-injection path is the bottleneck the paper's Fig 11 measures:
// a memory controller is "stalled" in a cycle when it holds a ready reply
// that the reply network refuses to accept.
package mem

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/noc"
	"repro/internal/ring"
)

// inReq is an accepted request waiting for L2 bank service. Requests are
// copied out of their packets at acceptance so the packet object can be
// recycled immediately.
type inReq struct {
	line  addr.Address
	write bool
	src   noc.NodeID
}

// ReplyBytes is the size of a read-reply packet (§III-D).
const ReplyBytes = 64

// ReadRequestBytes and WriteRequestBytes are the request packet sizes.
const (
	ReadRequestBytes  = 8
	WriteRequestBytes = 64
)

// MaxPacketBytes is the widest packet the memory system sends, so the
// channel width at which every packet rides in one flit.
const MaxPacketBytes = max(ReplyBytes, ReadRequestBytes, WriteRequestBytes)

// Config parameterizes an MC node.
type Config struct {
	L2        cache.Config
	L2Latency uint64 // L2 hit latency in interconnect cycles
	L2MSHRs   int
	DRAM      dram.Config
}

// DefaultConfig returns the Table II memory node: a 128 KB 8-way L2 bank
// and the paper's GDDR3 timing.
func DefaultConfig() Config {
	return Config{
		L2:        cache.Config{SizeBytes: 128 * 1024, LineBytes: 64, Ways: 8},
		L2Latency: 16,
		L2MSHRs:   64,
		DRAM:      dram.DefaultConfig(),
	}
}

// Stats aggregates MC activity.
type Stats struct {
	StallCycles uint64 // cycles a ready reply was refused by the network
	Cycles      uint64 // interconnect cycles observed
}

// StallFraction returns stalled cycles over all cycles (Fig 11's metric).
func (s Stats) StallFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.StallCycles) / float64(s.Cycles)
}

type timedReply struct {
	due       uint64
	line      addr.Address
	requester noc.NodeID
}

// MCNode is one memory-controller tile.
type MCNode struct {
	cfg    Config
	node   noc.NodeID
	l2     cache.Cache
	l2mshr cache.MSHR
	ctl    dram.Controller

	inQ    ring.Ring[inReq]
	hitQ   ring.Ring[timedReply]   // L2 hits waiting out the bank latency
	replyQ ring.Ring[timedReply]   // ready to inject
	writeQ ring.Ring[addr.Address] // victim lines awaiting DRAM write-back

	// pool recycles packet objects for injected replies; nil falls back to
	// plain allocation (standalone MC nodes in tests).
	pool *noc.PacketPool

	stats Stats
}

// New builds an MC node at the given mesh tile.
func New(cfg Config, node noc.NodeID, mapper *addr.Mapper) (*MCNode, error) {
	m := &MCNode{}
	if err := m.Init(cfg, node, mapper); err != nil {
		return nil, err
	}
	return m, nil
}

// Init builds m in place, as New does, reusing the arrays of m's previous
// build, its L2 bank's, MSHR table's, DRAM channel's and queues' among
// them, where their capacity fits. The packet pool is unset.
func (m *MCNode) Init(cfg Config, node noc.NodeID, mapper *addr.Mapper) error {
	*m = MCNode{
		cfg:    cfg,
		node:   node,
		l2:     m.l2,
		l2mshr: m.l2mshr,
		ctl:    m.ctl,
		inQ:    m.inQ,
		hitQ:   m.hitQ,
		replyQ: m.replyQ,
		writeQ: m.writeQ,
	}
	if err := m.l2.Init(cfg.L2); err != nil {
		return err
	}
	if cfg.L2MSHRs <= 0 {
		return fmt.Errorf("mem: L2MSHRs must be positive")
	}
	if err := m.l2mshr.Init(cfg.L2MSHRs, 0); err != nil {
		return err
	}
	if err := m.ctl.Init(cfg.DRAM, mapper); err != nil {
		return err
	}
	m.inQ.Init(16, 0)
	m.hitQ.Init(16, 0)
	m.replyQ.Init(16, 0)
	m.writeQ.Init(8, 0)
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, node noc.NodeID, mapper *addr.Mapper) *MCNode {
	m, err := New(cfg, node, mapper)
	if err != nil {
		panic(err)
	}
	return m
}

// Node returns the MC's mesh tile.
func (m *MCNode) Node() noc.NodeID { return m.node }

// SetPool installs a packet pool for reply injection. The system harness
// shares one pool across the whole simulation so the steady-state cycle
// loop allocates no packets.
func (m *MCNode) SetPool(pool *noc.PacketPool) { m.pool = pool }

// AcceptRequest consumes an ejected request packet, copying its payload
// (Packet.Line, Packet.Write, Packet.Src) into the service queue. The
// packet is NOT retained: the caller may recycle it immediately.
func (m *MCNode) AcceptRequest(pkt *noc.Packet) {
	if pkt.Class != noc.ClassRequest {
		panic(fmt.Sprintf("mem: packet %d is not a request", pkt.ID))
	}
	m.inQ.Push(inReq{line: addr.Address(pkt.Line), write: pkt.Write, src: pkt.Src})
}

// TickIcnt advances the MC by one interconnect cycle: one L2 bank access,
// hit-latency progression, and reply injection into net.
func (m *MCNode) TickIcnt(cycle uint64, net noc.Network) {
	m.stats.Cycles++
	m.serviceOne(cycle)
	m.promoteHits(cycle)
	m.injectReplies(cycle, net)
}

// serviceOne processes the oldest ejected request through the L2 bank.
func (m *MCNode) serviceOne(cycle uint64) {
	if m.inQ.Len() == 0 {
		return
	}
	req := *m.inQ.Front()
	if req.write {
		// Write-backs carry a full line: write-validate without fetching.
		if !m.l2.Access(req.line, true) {
			if victim, wb := m.l2.Fill(req.line, true); wb {
				m.writeQ.Push(victim)
			}
		}
		m.inQ.Pop()
		return
	}
	if m.l2.Access(req.line, false) {
		m.hitQ.Push(timedReply{due: cycle + m.cfg.L2Latency, line: req.line, requester: req.src})
		m.inQ.Pop()
		return
	}
	// L2 miss: merge or fetch from DRAM.
	switch m.l2mshr.Allocate(req.line, cache.Waiter(req.src), false, m.ctl.CanAccept()) {
	case cache.AllocStallFull:
		return // MSHR or DRAM queue backpressure; retry next cycle
	case cache.AllocNew:
		m.ctl.Enqueue(dram.Request{Addr: req.line})
	}
	m.inQ.Pop()
}

// promoteHits moves matured L2 hits into the reply queue (due times are
// monotonic, so popping stops at the first immature entry).
func (m *MCNode) promoteHits(cycle uint64) {
	for m.hitQ.Len() > 0 && m.hitQ.Front().due <= cycle {
		m.replyQ.Push(m.hitQ.Pop())
	}
}

// injectReplies pushes ready replies into the network until it refuses.
func (m *MCNode) injectReplies(cycle uint64, net noc.Network) {
	for m.replyQ.Len() > 0 {
		r := *m.replyQ.Front()
		pkt := m.getPacket()
		pkt.Src = m.node
		pkt.Dst = r.requester
		pkt.Class = noc.ClassReply
		pkt.Bytes = ReplyBytes
		pkt.Line = uint64(r.line)
		if !net.TryInject(pkt) {
			m.putPacket(pkt)
			m.stats.StallCycles++
			return
		}
		m.replyQ.Pop()
	}
}

// getPacket draws a zeroed packet from the pool, or allocates without one.
func (m *MCNode) getPacket() *noc.Packet {
	if m.pool != nil {
		return m.pool.Get()
	}
	return &noc.Packet{}
}

// putPacket returns a packet the network refused.
func (m *MCNode) putPacket(p *noc.Packet) {
	if m.pool != nil {
		m.pool.Put(p)
	}
}

// TickDRAM advances the GDDR3 channel one DRAM clock: completed reads fill
// the L2 and produce replies; pending write-backs drain into the channel.
func (m *MCNode) TickDRAM() {
	for m.writeQ.Len() > 0 && m.ctl.Enqueue(dram.Request{Addr: *m.writeQ.Front(), IsWrite: true}) {
		m.writeQ.Pop()
	}
	for _, done := range m.ctl.Tick() {
		if done.IsWrite {
			continue
		}
		line := done.Addr
		if victim, wb := m.l2.Fill(line, false); wb {
			m.writeQ.Push(victim)
		}
		waiters, _ := m.l2mshr.Fill(line)
		for _, w := range waiters {
			m.replyQ.Push(timedReply{line: line, requester: noc.NodeID(w)})
		}
	}
}

// NeverCycle is the horizon sentinel for "no future work without an
// external event".
const NeverCycle = ^uint64(0)

// NextIcntWorkCycle returns a conservative bound on the next TickIcnt
// cycle argument at which the MC does interconnect-side work, given that
// the next TickIcnt call would carry the argument now. Queued requests or
// ready replies mean work immediately; a maturing L2 hit works when its
// latency expires; an MC waiting only on DRAM (or idle) never works on
// the interconnect clock until an external event, and its per-tick cycle
// counter is credited by SkipIcnt.
func (m *MCNode) NextIcntWorkCycle(now uint64) uint64 {
	if m.inQ.Len() > 0 || m.replyQ.Len() > 0 {
		return now
	}
	if m.hitQ.Len() > 0 {
		if d := m.hitQ.Front().due; d > now {
			return d
		}
		return now
	}
	return NeverCycle
}

// SkipIcnt credits k idle interconnect ticks: the cycle counter advances
// exactly as k TickIcnt calls would.
func (m *MCNode) SkipIcnt(k uint64) { m.stats.Cycles += k }

// NextDRAMWorkCycle returns the controller-cycle count at which the next
// TickDRAM does real work: drains a pending write-back into a free queue
// slot, issues a DRAM transaction, or completes a burst.
func (m *MCNode) NextDRAMWorkCycle() uint64 {
	next := m.ctl.NextWorkCycle()
	if m.writeQ.Len() > 0 && m.ctl.CanAccept() {
		if w := m.ctl.Now() + 1; w < next {
			next = w
		}
	}
	return next
}

// SkipDRAM credits k idle DRAM ticks through to the channel controller.
func (m *MCNode) SkipDRAM(k uint64) { m.ctl.SkipAhead(k) }

// Busy reports whether the MC holds or awaits any work.
func (m *MCNode) Busy() bool {
	return m.inQ.Len() > 0 || m.hitQ.Len() > 0 || m.replyQ.Len() > 0 ||
		m.writeQ.Len() > 0 || m.ctl.Busy() || m.l2mshr.InFlight() > 0
}

// Stats returns the MC counters.
func (m *MCNode) Stats() Stats { return m.stats }

// L2Stats exposes the L2 bank's cache counters.
func (m *MCNode) L2Stats() cache.Stats { return m.l2.Stats() }

// DRAMStats exposes the memory channel's counters.
func (m *MCNode) DRAMStats() dram.Stats { return m.ctl.Stats() }
