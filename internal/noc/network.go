package noc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/reuse"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Network is the closed-loop simulator's view of an interconnect: offer
// packets, advance cycles, and collect the delivered packets. Mesh,
// DoubleMesh and Ideal all implement it.
type Network interface {
	// TryInject offers a packet at its source node. It returns false when
	// the source queue for the packet's class is full (the caller stalls).
	TryInject(p *Packet) bool
	// CanInject reports whether a packet of the given class would be
	// accepted at node n this cycle.
	CanInject(n NodeID, class TrafficClass) bool
	// Tick advances the network one interconnect cycle.
	Tick()
	// Delivered returns (and clears) every packet assembled since the last
	// call, at any node, in ejection order: each node's packets in the
	// order they arrived there. The returned slice is only valid until the
	// next Delivered call: implementations recycle the backing array to
	// keep the cycle loop allocation-free, so callers must consume (or copy)
	// the batch before asking again.
	Delivered() []*Packet
	// Cycle returns the elapsed interconnect cycles.
	Cycle() uint64
	// Quiet reports whether no packets are queued or in flight.
	Quiet() bool
	// Stats exposes aggregate counters.
	Stats() *NetStats
	// Health returns nil while the network is sound, or a sticky
	// *fault.HangError once the deadlock/invariant monitors trip.
	Health() error
	// NextWorkCycle returns a conservative bound on the next cycle count
	// at which Tick would do anything beyond the deterministic idle-tick
	// credits SkipAhead replays, or NeverCycle when only an injection can
	// create work. "Conservative" means it may name an earlier cycle than
	// the real one (forcing a harmless edge-by-edge tick) but never a
	// later one.
	NextWorkCycle() uint64
	// SkipAhead credits k consecutive idle ticks in O(1), bit-identical
	// to calling Tick k times under NextWorkCycle's guarantee. Callers
	// must not skip at or past the cycle NextWorkCycle returned and must
	// recompute the horizon after any injection.
	SkipAhead(k uint64)
}

// NeverCycle is the NextWorkCycle sentinel for "idle until an external
// event (an injection) creates work".
const NeverCycle = ^uint64(0)

// NetStats aggregates network activity.
type NetStats struct {
	Cycles          uint64
	FlitHops        uint64 // switch traversals, network-wide
	InjectedFlits   []uint64
	InjectedPackets []uint64
	InjectedBytes   uint64 // packet payload bytes injected, network-wide
	EjectedFlits    []uint64
	NetLatency      stats.Mean // head injection -> tail ejection

	// Fault-injection and resilience counters (all zero when faults are off).
	CorruptFlits     uint64        // flit deliveries struck by a link fault
	DroppedPackets   uint64        // packets failing the end-to-end check at ejection
	Retransmits      uint64        // wire packets re-injected by the timeout
	LostCredits      uint64        // credits delayed by the resync protocol
	StuckVCFaults    uint64        // stuck-VC faults placed
	RetriesPerPacket stats.IntDist // retries per delivered transfer
}

// InjectionRate returns node n's injection rate in flits/cycle.
func (s *NetStats) InjectionRate(n NodeID) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.InjectedFlits[n]) / float64(s.Cycles)
}

// AcceptedFlitsPerCycle returns network-wide accepted traffic averaged over
// all nodes, in flits/cycle/node.
func (s *NetStats) AcceptedFlitsPerCycle() float64 {
	if s.Cycles == 0 || len(s.InjectedFlits) == 0 {
		return 0
	}
	var total uint64
	for _, f := range s.InjectedFlits {
		total += f
	}
	return float64(total) / float64(s.Cycles) / float64(len(s.InjectedFlits))
}

// AcceptedBytesPerCycle returns accepted traffic averaged over all nodes,
// in payload bytes/cycle/node (the §III-B classification metric).
func (s *NetStats) AcceptedBytesPerCycle() float64 {
	if s.Cycles == 0 || len(s.InjectedFlits) == 0 {
		return 0
	}
	return float64(s.InjectedBytes) / float64(s.Cycles) / float64(len(s.InjectedFlits))
}

// Config parameterizes a network (defaults are Table III).
type Config struct {
	// Topology selects the interconnect backend; the zero value is the 2D
	// mesh. Width×Height always names the node count; the ring backend
	// arranges those nodes in id order around a circle.
	Topology         BackendKind
	Width, Height    int
	FlitBytes        int
	NumVCs           int
	BufDepth         int         // flits per VC
	RouterStages     int         // full-router pipeline depth
	HalfRouterStages int         // half-router pipeline depth
	ChannelLatency   uint64      // cycles
	CreditLatency    uint64      // cycles
	Checkerboard     bool        // half-routers at odd-parity tiles
	Routing          RoutingAlgo // DOR or checkerboard routing
	SplitClasses     bool        // reserve disjoint VCs for request/reply
	MCs              []NodeID    // memory-controller tiles
	MCInjPorts       int         // injection ports at MC routers (2P: 2)
	MCEjPorts        int         // ejection ports at MC routers
	SrcQueueCap      int         // source queue capacity per class, packets
	Seed             uint64
	Fault            fault.Config // fault injection + health monitoring policy
}

// DefaultConfig returns the paper's baseline mesh (Tables II/III): 6×6,
// 16-byte channels, 2 VCs × 8-flit buffers, 4-stage routers, 1-cycle
// channels, DOR, MCs on the top and bottom rows.
func DefaultConfig() Config {
	return Config{
		Width: 6, Height: 6,
		FlitBytes:        16,
		NumVCs:           2,
		BufDepth:         8,
		RouterStages:     4,
		HalfRouterStages: 3,
		ChannelLatency:   1,
		CreditLatency:    1,
		Checkerboard:     false,
		Routing:          RoutingDOR,
		SplitClasses:     true,
		MCs:              TopBottomPlacement(6, 6, 8),
		MCInjPorts:       1,
		MCEjPorts:        1,
		SrcQueueCap:      8,
		Seed:             1,
		Fault:            fault.DefaultConfig(),
	}
}

// vcPlan maps (traffic class, routing phase) to the allowed output VCs, as
// a mask with bit v set for VC v. Every set is a contiguous ascending range,
// so the lowest set bit of the mask ANDed with the free VCs is the first
// free VC in the set's order.
type vcPlan struct {
	masks [NumClasses][2]uint64
}

func buildVCPlan(numVCs int, split bool, phases int) (vcPlan, error) {
	div := 1
	if split {
		div *= 2
	}
	if phases > 1 {
		div *= 2 // two-phase routing needs disjoint phase VC classes
	}
	if numVCs < div || numVCs%div != 0 {
		return vcPlan{}, fmt.Errorf("noc: %d VCs not divisible across %d class/phase sets", numVCs, div)
	}
	per := numVCs / div
	var p vcPlan
	for class := 0; class < int(NumClasses); class++ {
		for phase := 0; phase < 2; phase++ {
			base := 0
			if split {
				base += class * (numVCs / 2)
			}
			if phases > 1 {
				base += phase * per
			}
			p.masks[class][phase] = (uint64(1)<<uint(per) - 1) << uint(base)
		}
	}
	return p, nil
}

// allowed returns the output VC mask of a packet of class in its routing
// phase.
func (p *vcPlan) allowed(class TrafficClass, yxPhase bool) uint64 {
	phase := 0
	if yxPhase {
		phase = 1
	}
	return p.masks[class][phase]
}

// Mesh is the cycle-level network engine. Despite the historical name it
// serves every topology backend (mesh, ring, basejump): routers, VCs,
// credits, NIs and fault injection are backend-agnostic, and the
// backend contributes geometry and routing.
type Mesh struct{ meshNet }

type meshNet struct {
	cfg     Config
	backend Backend
	vcs     vcPlan
	routers []*router
	nis     []*netIface
	cycle   uint64
	rng     xrand.Rand
	stats   NetStats
	active  int
	nextPkt uint64

	// Active-component work lists: one bitset per component Tick phase
	// (inject, route), indexed like the matching component slice. A
	// component sets its bit when it gains work (a queued packet or flit)
	// and the phase loop clears the bit once the component goes idle, so
	// the common case — most tiles idle — costs nothing per cycle. A router
	// that sends to a neighbour puts that neighbour on the router list
	// mid-phase; whether the traversal still reaches it this cycle is
	// immaterial, because the flit is stamped with a later cycle and a step
	// that finds nothing due is a no-op. So the in-order bitset iteration
	// does exactly the work the dense loops would have, keeping
	// equal-seeded runs bit-identical.
	injActive activeSet
	rtrActive activeSet

	// ejq holds the flits on the ejection links, in traversal order, each
	// stamped with the cycle it reaches its NI. Stamps never decrease, so
	// the eject phase pops the due ones off the front. Sized once, to
	// ejLinkFlits per ejection port.
	ejq ring.Ring[ejFlit]

	// deliv lists the packets assembled since the last Delivered call, in
	// ejection order; Delivered swaps it with spare, so the steady state
	// reuses two backing arrays instead of allocating one per batch.
	deliv, spare []*Packet

	// credDue is the cycle the last freed slot's credit reaches its upstream
	// router (resync delay not included); dues only grow, so it tells
	// NextWorkCycle whether a credit is still on its way back.
	credDue uint64

	// interScratch is the reusable candidate buffer for checkerboard
	// case-2 intermediate selection, sized once to the node count so route
	// planning never allocates.
	interScratch []NodeID

	// Resilience machinery (see resilience.go). fs is nil at fault rate 0,
	// and wd has a zero Window with the watchdog disabled; both leave
	// behaviour bit-identical to a build without the subsystem.
	fs         *faultState
	wd         fault.Watchdog
	health     *fault.HangError
	moveCount  uint64 // monotonic flit-movement counter for the watchdog
	auditEvery uint64 // flit-conservation audit period

	// The arrays the network is carved from, kept whole so that the next
	// init carves its build out of them: the stats counters, the two
	// node bitsets, the routers and their slabs, the NIs, their writers
	// and their source-queue buffers.
	mem struct {
		counters, sets []uint64
		routers        []router
		slabs          routerSlabs
		nis            []netIface
		writers        []injWriter
		queued         []*Packet
	}
}

// NewMesh validates cfg and builds the network.
func NewMesh(cfg Config) (*Mesh, error) {
	m := &Mesh{}
	if err := m.Init(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Init validates cfg and builds the network in place, as NewMesh does,
// carving it from the arrays of m's previous build where their capacity
// fits.
func (m *Mesh) Init(cfg Config) error {
	backend, err := BuildBackend(cfg)
	if err != nil {
		return err
	}
	return m.init(cfg, backend)
}

// init builds the network body in place on an already-validated backend.
// Every array comes out of n.mem, re-sliced and cleared where its capacity
// fits, so a rebuild into a network of the same shape allocates nothing
// but a faulty network's resilience state.
func (n *meshNet) init(cfg Config, backend Backend) error {
	if cfg.FlitBytes <= 0 || cfg.BufDepth <= 0 || cfg.NumVCs <= 0 {
		return fmt.Errorf("noc: FlitBytes, BufDepth and NumVCs must be positive")
	}
	if cfg.RouterStages <= 0 || cfg.HalfRouterStages <= 0 {
		return fmt.Errorf("noc: router stages must be positive")
	}
	if cfg.MCInjPorts <= 0 || cfg.MCEjPorts <= 0 {
		return fmt.Errorf("noc: MC port counts must be positive")
	}
	if cfg.SrcQueueCap <= 0 {
		return fmt.Errorf("noc: source queue capacity must be positive")
	}
	if err := checkRouterWidth(cfg); err != nil {
		return err
	}
	plan, err := buildVCPlan(cfg.NumVCs, cfg.SplitClasses, cfg.phases())
	if err != nil {
		return err
	}
	if err := cfg.Fault.Validate(); err != nil {
		return err
	}
	nNodes := backend.NumNodes()
	*n = meshNet{
		cfg:          cfg,
		backend:      backend,
		vcs:          plan,
		routers:      reuse.Slice(n.routers, nNodes),
		nis:          reuse.Slice(n.nis, nNodes),
		ejq:          n.ejq,
		deliv:        n.deliv[:0],
		spare:        n.spare[:0],
		interScratch: reuse.Keep(n.interScratch, nNodes)[:0],
		mem:          n.mem,
	}
	n.rng.Seed(cfg.Seed)
	if cfg.Fault.Enabled() {
		_, _, stD := pipeDelays(cfg.RouterStages) // the same at every depth
		n.fs = newFaultState(cfg.Fault, stD+cfg.ChannelLatency)
	}
	if cfg.Fault.Monitored() {
		n.wd = fault.Watchdog{Window: cfg.Fault.WatchdogCycles}
		n.auditEvery = cfg.Fault.WatchdogCycles / 4
	}
	mem := &n.mem
	mem.counters = reuse.Slice(mem.counters, 3*nNodes)
	counters := mem.counters
	n.stats.InjectedFlits = carve(&counters, nNodes)
	n.stats.InjectedPackets = carve(&counters, nNodes)
	n.stats.EjectedFlits = carve(&counters, nNodes)
	setWords := (nNodes + 63) / 64
	mem.sets = reuse.Slice(mem.sets, 2*setWords)
	sets := mem.sets
	n.injActive.words = carve(&sets, setWords)
	n.rtrActive.words = carve(&sets, setWords)

	// One pass sets every router's parameters and sizes the slabs that hold
	// all per-router and per-NI state; the constructors below carve them.
	mem.routers = reuse.Slice(mem.routers, nNodes)
	routers := mem.routers
	var size slabSize
	injPorts, ejPorts := 0, 0
	for id := range routers {
		node := NodeID(id)
		p := routerParams{
			node:     node,
			half:     backend.IsHalf(node),
			numVCs:   cfg.NumVCs,
			bufDepth: cfg.BufDepth,
			nInj:     1,
			nEj:      1,
			stages:   cfg.RouterStages,
			chanLat:  cfg.ChannelLatency,
			credLat:  cfg.CreditLatency,
		}
		if p.half {
			p.stages = cfg.HalfRouterStages
		}
		if backend.IsMC(node) {
			p.nInj = cfg.MCInjPorts
			p.nEj = cfg.MCEjPorts
		}
		routers[id].p = p
		size.add(p.slabSize())
		injPorts += p.nInj
		ejPorts += p.nEj
	}
	n.ejq.Init(ejPorts*ejLinkFlits, ejPorts*ejLinkFlits)
	size.reuse(&mem.slabs)
	slabs := mem.slabs
	for id := range routers {
		r := &routers[id]
		r.init(r.p, n, &slabs)
		n.routers[id] = r
	}
	if n.fs != nil {
		n.wireCreditReturn()
	}
	for id := 0; id < nNodes; id++ {
		r := n.routers[id]
		for d := Port(0); d < numDirs; d++ {
			if nb := backend.Neighbor(NodeID(id), d); nb >= 0 {
				down, port := n.routers[nb], int(d.opposite())
				r.downRtr[d] = down
				r.downVCs[d] = down.inputs[port*cfg.NumVCs : (port+1)*cfg.NumVCs]
			}
		}
	}
	mem.nis = reuse.Keep(mem.nis, nNodes)
	mem.writers = reuse.Slice(mem.writers, injPorts*cfg.NumVCs)
	mem.queued = reuse.Slice(mem.queued, nNodes*int(NumClasses)*cfg.SrcQueueCap)
	writers, queued := mem.writers, mem.queued
	for id := range mem.nis {
		ni := &mem.nis[id]
		ni.init(NodeID(id), n.routers[id], n, &writers, &queued)
		n.nis[id] = ni
	}
	return nil
}

// wireCreditReturn builds the lost-credit return path of a faulty network:
// for every direction link a creditChannel from the downstream router's
// input port back to the upstream router's output port, on a ring that
// holds every credit the link's buffers can withhold (numVCs*bufDepth). The
// channels, their rings and the routers' credChans/credIn tables come from
// one slab each.
func (n *meshNet) wireCreditReturn() {
	nNodes, chanCap := len(n.routers), n.cfg.NumVCs*n.cfg.BufDepth
	links := LinkCount(n.backend)
	tables := make([]*creditChannel, 2*int(numDirs)*nNodes)
	chans := make([]creditChannel, links)
	events := make([]creditEvent, links*chanCap)
	for _, r := range n.routers {
		r.credChans = carve(&tables, int(numDirs))
		r.credIn = carve(&tables, int(numDirs))
	}
	for id, r := range n.routers {
		for d := Port(0); d < numDirs; d++ {
			nb := n.backend.Neighbor(NodeID(id), d)
			if nb < 0 {
				continue
			}
			cc := &chans[0]
			chans = chans[1:]
			*cc = creditChannel{dst: r, dstPort: int(d), q: ring.Over(carve(&events, chanCap), chanCap)}
			n.routers[nb].credChans[int(d.opposite())] = cc
			r.credIn[d] = cc
		}
	}
}

// checkRouterWidth rejects configurations the router's fixed-width state
// cannot represent: a VC number must fit Flit.VC, a credit must return
// within the 64-cycle pop window of inVC.popBits, and the widest router (an
// MC tile: four direction inputs plus MCInjPorts injection ports, four
// direction outputs plus MCEjPorts ejection ports) must fit its input VCs
// in one 64-bit stage mask and its output ports in one 64-bit request mask.
func checkRouterWidth(cfg Config) error {
	if cfg.NumVCs > math.MaxInt16 {
		return fmt.Errorf("noc: %d VCs exceed the flit VC field (max %d)", cfg.NumVCs, math.MaxInt16)
	}
	if cfg.CreditLatency > maxCreditLatency {
		return fmt.Errorf("noc: credit latency %d exceeds the %d-cycle pop window", cfg.CreditLatency, maxCreditLatency)
	}
	if in := (int(numDirs) + cfg.MCInjPorts) * cfg.NumVCs; in > maxInputVCs {
		return fmt.Errorf("noc: %d input ports x %d VCs = %d input VCs per MC router, limit %d",
			int(numDirs)+cfg.MCInjPorts, cfg.NumVCs, in, maxInputVCs)
	}
	if out := int(numDirs) + cfg.MCEjPorts; out > maxOutputPorts {
		return fmt.Errorf("noc: %d output ports per MC router, limit %d", out, maxOutputPorts)
	}
	return nil
}

// MustNewMesh is NewMesh but panics on error.
func MustNewMesh(cfg Config) *Mesh {
	m, err := NewMesh(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Topology exposes the mesh geometry, or nil for backends without one
// (ring). Prefer Backend for topology-agnostic callers.
func (n *meshNet) Topology() *Topology {
	t, _ := n.backend.(*Topology)
	return t
}

// Backend exposes the topology backend.
func (n *meshNet) Backend() Backend { return n.backend }

// FlitBytes returns the channel flit size.
func (n *meshNet) FlitBytes() int { return n.cfg.FlitBytes }

// flitsFor sizes a payload in flits, enforcing the single-flit contract of
// backends whose packets must fit one channel word (basejump).
func (n *meshNet) flitsFor(bytes int) int {
	f := flitCount(bytes, n.cfg.FlitBytes)
	if f > 1 && n.cfg.Topology.singleFlit() {
		panic(fmt.Sprintf("noc: %d-byte packet exceeds the %d-byte single-flit channel of the %s backend",
			bytes, n.cfg.FlitBytes, n.cfg.Topology))
	}
	return f
}

// Cycle returns the elapsed cycles.
func (n *meshNet) Cycle() uint64 { return n.cycle }

// Stats returns the live counters.
func (n *meshNet) Stats() *NetStats { return &n.stats }

// Quiet reports whether the network holds no packets and no transfer is
// awaiting a retransmission timeout.
func (n *meshNet) Quiet() bool {
	return n.active == 0 && (n.fs == nil || n.fs.pending == 0)
}

// CanInject reports source-queue space for class at node.
func (n *meshNet) CanInject(node NodeID, class TrafficClass) bool {
	return !n.nis[node].srcQ[class].Full()
}

// TryInject offers p at p.Src. On success the network owns the packet until
// it reappears in Delivered, at p.Dst.
func (n *meshNet) TryInject(p *Packet) bool {
	if p.Src < 0 || int(p.Src) >= n.backend.NumNodes() || p.Dst < 0 || int(p.Dst) >= n.backend.NumNodes() {
		panic(fmt.Sprintf("noc: inject with bad endpoints %d->%d", p.Src, p.Dst))
	}
	if !n.CanInject(p.Src, p.Class) {
		return false
	}
	yx, inter, err := n.backend.PlanRoute(p.Src, p.Dst, &n.rng, n.interScratch)
	if err != nil {
		panic(err)
	}
	p.YXPhase, p.Intermediate = yx, inter
	p.ID = n.nextPkt
	n.nextPkt++
	p.OfferedAt = n.cycle
	n.nis[p.Src].enqueue(p)
	n.active++
	if n.fs != nil {
		n.fs.onInject(n, p)
	}
	return true
}

// Delivered returns and clears the packets assembled since the last call,
// in ejection order. The list and its spare predecessor are double-buffered;
// the returned slice is valid until the next Delivered call.
func (n *meshNet) Delivered() []*Packet {
	out := n.deliv
	n.deliv = n.spare[:0]
	n.spare = out
	return out
}

// Tick advances one network cycle: the cycle count and fault machinery,
// then the three phases — inject, route, eject. Inject and route walk only
// their active components in ascending index order, the same order the
// dense loops used, so arbitration and fault-RNG draw sequences are
// unchanged. Eject pops the due flits off the ejection FIFO, in traversal
// order (router ascending, then output port ascending), and hands each to
// its NI, which appends the packets it assembles to the delivery list.
// Links are not a phase: a router's sends land in the neighbour's buffers
// directly. The cycle ends with the health monitors.
func (n *meshNet) Tick() {
	n.cycle++
	cycle := n.cycle
	if n.fs != nil {
		n.fs.tick(n)
	}
	n.injActive.forEach(func(i int) {
		ni := n.nis[i]
		ni.injectStep(cycle)
		if ni.pend == 0 {
			n.injActive.clear(i)
		}
	})
	n.rtrActive.forEach(func(i int) {
		r := n.routers[i]
		r.step(cycle)
		if !r.busy() {
			n.rtrActive.clear(i)
		}
	})
	for q := &n.ejq; q.Len() > 0 && q.Front().at <= cycle; {
		e := q.Pop()
		n.nis[e.node].eject(e.pkt, cycle)
	}
	n.stats.Cycles++
	n.observeHealth()
}

// NextWorkCycle scans the work lists for the earliest cycle with real work:
// any queued injection, router with a VC in a pipeline stage, pending
// ejection or credit still on its way back means the very next tick works;
// otherwise the earliest arrival among the flits on the wire, which are the
// fronts of the routers' arrMask VCs. (A credit wakes nobody — the upstream
// router derives it, see router.freeSlots — but counting the cycle it lands
// as work keeps the horizon, and so every skip count, what it was when
// credits had a delivery phase.)
// Fault injection draws its RNG every cycle and a tripped monitor must keep
// reporting, so both force edge-by-edge ticking. With an armed deadlock
// watchdog and work in flight, the horizon also never passes the cycle the
// watchdog would trip, so a wedged network is detected on exactly the same
// cycle as when stepping.
func (n *meshNet) NextWorkCycle() uint64 {
	if n.fs != nil || n.health != nil ||
		!n.injActive.isEmpty() || n.ejq.Len() > 0 || n.credDue > n.cycle {
		return n.cycle + 1
	}
	next := NeverCycle
	for wi, w := range n.rtrActive.words {
		for ; w != 0; w &= w - 1 {
			r := n.routers[wi<<6+bits.TrailingZeros64(w)]
			if r.working() {
				return n.cycle + 1
			}
			for m := r.arrMask; m != 0; m &= m - 1 {
				if at := r.inputs[bits.TrailingZeros64(m)].nextAt; at < next {
					next = at
				}
			}
		}
	}
	if n.wd.Window > 0 && n.inFlightTotal() > 0 {
		// observeHealth ran at the last cycle boundary, so the watchdog is
		// synced and an un-tripped monitor means lastMove+Window is still
		// ahead of the current cycle.
		if trip := n.wd.LastMovement() + n.wd.Window; trip < next {
			next = trip
		}
	}
	if next <= n.cycle {
		next = n.cycle + 1
	}
	return next
}

// SkipAhead credits k idle ticks: with no due events and no active
// components, a tick is exactly cycle/stat increments plus the end-of-
// cycle health observation, which is replayed once at the landing cycle
// (the intermediate observations are no-ops: an idle network resets the
// watchdog's movement mark, which the final observation reproduces, and
// the conservation audit is pure on a consistent network).
func (n *meshNet) SkipAhead(k uint64) {
	n.cycle += k
	n.stats.Cycles += k
	n.observeHealth()
}
