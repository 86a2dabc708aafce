package noc

import (
	"fmt"

	"repro/internal/reuse"
	"repro/internal/ring"
)

// Ideal is a zero-latency network with an optional aggregate bandwidth cap,
// used for the paper's limit studies: Fig 6 sweeps the cap (in flits per
// interconnect cycle across the whole chip), and the "perfect network" of
// Fig 7 is the uncapped case. Once accepted, a packet is delivered to its
// destination in the same cycle; acceptance consumes budget equal to the
// packet's flit count, and multiple sources and destinations may transfer
// in one cycle.
type Ideal struct {
	numNodes  int
	flitBytes int
	cap       float64 // flits/cycle accepted; <= 0 means infinite
	budget    float64
	pending   ring.Ring[*Packet] // grows on demand; steady state never reallocates
	deliv     []*Packet
	spare     []*Packet // double-buffers the delivery list
	cycle     uint64
	active    int
	nextPkt   uint64
	stats     NetStats
	counters  []uint64 // backs stats' per-node tallies
}

// NewIdeal builds an ideal network over numNodes nodes. flitsPerCycleCap
// <= 0 gives the perfect (infinite-bandwidth) network.
func NewIdeal(numNodes, flitBytes int, flitsPerCycleCap float64) (*Ideal, error) {
	n := &Ideal{}
	if err := n.Init(numNodes, flitBytes, flitsPerCycleCap); err != nil {
		return nil, err
	}
	return n, nil
}

// Init builds n in place, as NewIdeal does, reusing the arrays of n's
// previous build where their capacity fits; the delivery lists keep their
// backing arrays, emptied.
func (n *Ideal) Init(numNodes, flitBytes int, flitsPerCycleCap float64) error {
	if numNodes <= 0 || flitBytes <= 0 {
		return fmt.Errorf("noc: ideal network needs positive node count and flit size")
	}
	*n = Ideal{
		numNodes:  numNodes,
		flitBytes: flitBytes,
		cap:       flitsPerCycleCap,
		pending:   n.pending,
		deliv:     n.deliv[:0],
		spare:     n.spare[:0],
		counters:  reuse.Slice(n.counters, 3*numNodes),
	}
	n.pending.Init(16, 0)
	counters := n.counters
	n.stats.InjectedFlits = carve(&counters, numNodes)
	n.stats.InjectedPackets = carve(&counters, numNodes)
	n.stats.EjectedFlits = carve(&counters, numNodes)
	return nil
}

// MustNewIdeal is NewIdeal but panics on error.
func MustNewIdeal(numNodes, flitBytes int, cap float64) *Ideal {
	n, err := NewIdeal(numNodes, flitBytes, cap)
	if err != nil {
		panic(err)
	}
	return n
}

// CanInject always reports true: the ideal network has unbounded source
// queues; the bandwidth cap delays rather than refuses packets.
func (n *Ideal) CanInject(NodeID, TrafficClass) bool { return true }

// TryInject accepts p unconditionally.
func (n *Ideal) TryInject(p *Packet) bool {
	if p.Src < 0 || int(p.Src) >= n.numNodes || p.Dst < 0 || int(p.Dst) >= n.numNodes {
		panic(fmt.Sprintf("noc: inject with bad endpoints %d->%d", p.Src, p.Dst))
	}
	p.ID = n.nextPkt
	n.nextPkt++
	p.OfferedAt = n.cycle
	n.pending.Push(p)
	n.active++
	return true
}

// Tick delivers queued packets in arrival order until the cycle's flit
// budget is spent. The budget may go negative on the last packet (large
// packets are not starved by small budgets); the deficit carries over.
func (n *Ideal) Tick() {
	n.cycle++
	n.stats.Cycles++
	if n.cap > 0 {
		n.budget += n.cap
		if n.budget > n.cap {
			// Idle cycles do not bank unlimited credit.
			n.budget = n.cap
		}
	}
	for n.pending.Len() > 0 {
		if n.cap > 0 && n.budget <= 0 {
			break
		}
		p := n.pending.Pop()
		flits := flitCount(p.Bytes, n.flitBytes)
		p.flits = int32(flits)
		if n.cap > 0 {
			n.budget -= float64(flits)
		}
		p.InjectedAt = n.cycle
		p.ArrivedAt = n.cycle
		n.deliv = append(n.deliv, p)
		n.stats.InjectedFlits[p.Src] += uint64(flits)
		n.stats.InjectedPackets[p.Src]++
		n.stats.InjectedBytes += uint64(p.Bytes)
		n.stats.EjectedFlits[p.Dst] += uint64(flits)
		n.stats.NetLatency.Add(0)
		n.active--
	}
}

// Delivered returns and clears the packets delivered since the last call,
// in delivery order. The list is double-buffered: the returned slice is
// valid until the next Delivered call.
func (n *Ideal) Delivered() []*Packet {
	out := n.deliv
	n.deliv = n.spare[:0]
	n.spare = out
	return out
}

// Cycle returns elapsed cycles.
func (n *Ideal) Cycle() uint64 { return n.cycle }

// Quiet reports whether no packets are pending.
func (n *Ideal) Quiet() bool { return n.active == 0 }

// Stats returns the counters.
func (n *Ideal) Stats() *NetStats { return &n.stats }

// Health always reports sound: the ideal network models no faults and
// cannot deadlock.
func (n *Ideal) Health() error { return nil }

// NextWorkCycle reports work on the very next tick while packets are
// pending (the budget replenishes and deliveries drain), and NeverCycle
// once the queue is empty.
func (n *Ideal) NextWorkCycle() uint64 {
	if n.pending.Len() > 0 {
		return n.cycle + 1
	}
	return NeverCycle
}

// SkipAhead credits k idle ticks: cycle counters advance and the budget
// replays its per-tick replenish-and-clamp, which reaches the cap fixed
// point after at most one tick and then stops.
func (n *Ideal) SkipAhead(k uint64) {
	n.cycle += k
	n.stats.Cycles += k
	if n.cap > 0 {
		for ; k > 0; k-- {
			n.budget += n.cap
			if n.budget > n.cap {
				n.budget = n.cap
				break
			}
		}
	}
}
