// Package noc implements the cycle-level on-chip network models of the
// paper: a 2D mesh of virtual-channel wormhole routers (full and half
// routers, multi-port memory-controller routers), dimension-order and
// checkerboard routing, credit-based flow control, channel-sliced double
// networks, and idealized (zero-latency) networks for limit studies.
package noc

import "fmt"

// NodeID identifies a mesh tile: id = y*width + x.
type NodeID int

// TrafficClass separates request and reply traffic, which must use disjoint
// virtual channels (or disjoint physical networks) to avoid protocol
// deadlock.
type TrafficClass int

// Traffic classes.
const (
	ClassRequest TrafficClass = iota
	ClassReply
	NumClasses
)

// String names the class.
func (c TrafficClass) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassReply:
		return "reply"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Packet is one network transaction. Routing state (YX flag, intermediate
// node) is planned at injection by the routing algorithm and consumed by
// per-hop route computation.
type Packet struct {
	ID    uint64
	Src   NodeID
	Dst   NodeID
	Class TrafficClass
	Bytes int // payload size; flit count = ceil(Bytes/flitBytes)

	// Routing state for checkerboard routing (§IV-B).
	YXPhase      bool   // currently routing Y-first
	Intermediate NodeID // CR case-2 intermediate full-router; < 0 when unused

	// Line and Write are the caller's payload, typed rather than boxed in
	// an interface{} (which would allocate on every packet). The closed
	// loop carries a cache-line address and the read/write flag; the open
	// loop carries a reply's request offer cycle in Line.
	Line  uint64
	Write bool

	// Timing, in network cycles.
	OfferedAt  uint64 // when handed to the network interface
	InjectedAt uint64 // when the head flit entered the injection buffer
	ArrivedAt  uint64 // when the last flit was ejected

	// flits is the cached flit count and ejected the flits that have
	// reached the destination NI so far: the packet is assembled when the
	// two meet. Two int32s share the word a single int would take, keeping
	// Packet at 136 bytes.
	flits   int32
	ejected int32

	// Resilience state (used only when fault injection is enabled).
	lid     uint64 // logical transfer id: wire ID of the first attempt
	attempt int    // 1-based transmission attempt this wire packet carries
	corrupt bool   // a link fault struck a flit; discard at the ejection NI
	hops    int    // switch traversals so far, for the deadlock dump
}

// Attempt returns which end-to-end transmission attempt this wire packet
// was (1 = original injection, 0 = fault injection disabled).
func (p *Packet) Attempt() int { return p.attempt }

// Corrupt reports whether a link fault struck one of the packet's flits;
// such packets fail their end-to-end check and are dropped at the ejection
// network interface, to be recovered by retransmission.
func (p *Packet) Corrupt() bool { return p.corrupt }

// NetworkLatency is the in-network latency (head injection to tail arrival).
func (p *Packet) NetworkLatency() uint64 { return p.ArrivedAt - p.InjectedAt }

// TotalLatency includes source-queue waiting time.
func (p *Packet) TotalLatency() uint64 { return p.ArrivedAt - p.OfferedAt }

// Flit is the flow-control unit. Flits of one packet always travel in order
// on a single virtual channel per link. The struct is copied on every buffer
// write, channel send and switch traversal, so its fields are narrowed to
// keep it at 24 bytes: meshNet.init rejects VC counts beyond the int16 range,
// and a packet's flit count is bounded far below int32.
type Flit struct {
	Pkt *Packet

	// arrived is the cycle the flit enters (is visible in) the buffer it sits
	// in: a flit sent on a link is deposited downstream at once and stamped
	// with the end of the wire. It also lets a queued head overlap its
	// buffer-write/RC stages with the previous packet's drain (pipelined
	// routers do this).
	arrived uint64

	Seq  int32 // 0-based position within the packet
	VC   int16 // virtual channel on the link the flit currently occupies
	Head bool
	Tail bool
}

// PacketPool is a free list of Packet objects for steady-state
// allocation-free simulation. A run's packet population is bounded by the
// in-flight work, so after warm-up every Get is served from the free list
// and the cycle loop performs no heap allocation for packets.
//
// The pool is deliberately NOT safe for concurrent use: each simulation run
// is single-threaded (the parallel experiment runner isolates runs in
// separate goroutines with separate pools), and a mutex or sync.Pool would
// put synchronization on the hot path for no benefit. Ownership contract:
// whoever drains a packet from the network (ejection-side consumer) is
// responsible for returning it with Put once the payload is extracted;
// packets still referenced anywhere must never be Put. A pool carries over
// to a new run as it is: Get zeroes each packet it hands out, and packets a
// finished run still held (queued or in flight when it stopped) are not on
// the list and are left to the collector.
type PacketPool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// Put recycles p. The caller must hold the only live reference.
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	pp.free = append(pp.free, p)
}

// flitCount returns the number of flits a payload of n bytes needs on links
// with the given flit size.
func flitCount(n, flitBytes int) int {
	if n <= 0 {
		return 1
	}
	return (n + flitBytes - 1) / flitBytes
}
