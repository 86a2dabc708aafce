package noc

import (
	"fmt"

	"repro/internal/reuse"
)

// Double is the channel-sliced network of §IV-C: two physical mesh networks
// at half channel width. In the paper's dedicated form one slice carries
// request traffic and the other replies, which needs no protocol-deadlock
// VCs; the alternative §IV-C mentions is a load-balanced pair where both
// slices carry both classes (each slice then splits its VCs by class).
// Either way, the quadratic dependence of crossbar area on channel width
// makes the pair cheaper than one full-width network (Table VI).
type Double struct {
	nets     [2]*Mesh
	balanced bool
	rr       []uint8 // per-source slice rotation (balanced mode)

	// deliv is the merge buffer for a batch in which both slices deliver,
	// and merged the target Stats refills: both are reused, so a warmed
	// double network allocates nothing per cycle. counters backs merged's
	// per-node tallies.
	deliv    []*Packet
	merged   NetStats
	counters []uint64
}

// NewDouble builds the paper's dedicated pair from cfg. cfg describes the
// equivalent single network: each slice gets cfg.FlitBytes/2-byte channels
// and all of its VCs for a single traffic class (cfg.SplitClasses is
// ignored).
func NewDouble(cfg Config) (*Double, error) {
	return newDouble(cfg, false)
}

// NewDoubleBalanced builds the load-balanced alternative: both slices carry
// both classes (so each slice keeps class-split VCs against protocol
// deadlock) and every source spreads its packets across the slices
// round-robin.
func NewDoubleBalanced(cfg Config) (*Double, error) {
	return newDouble(cfg, true)
}

func newDouble(cfg Config, balanced bool) (*Double, error) {
	d := &Double{}
	if err := d.Init(cfg, balanced); err != nil {
		return nil, err
	}
	return d, nil
}

// Init builds d in place, as NewDoubleBalanced (balanced) or NewDouble
// does, building both slices into d's previous ones and reusing d's
// arrays where their capacity fits.
func (d *Double) Init(cfg Config, balanced bool) error {
	if cfg.FlitBytes%2 != 0 {
		return fmt.Errorf("noc: cannot slice odd channel width %d", cfg.FlitBytes)
	}
	if cfg.Topology.singleFlit() {
		return fmt.Errorf("noc: cannot channel-slice the single-flit %s backend (half-width flits could no longer carry a packet)", cfg.Topology)
	}
	nodes := cfg.Width * cfg.Height
	spareRR := d.rr
	*d = Double{
		nets:     d.nets,
		balanced: balanced,
		deliv:    d.deliv[:0],
		counters: reuse.Slice(d.counters, 3*nodes),
	}
	for c := range d.nets {
		sub := cfg
		sub.FlitBytes = cfg.FlitBytes / 2
		sub.SplitClasses = balanced
		sub.Seed = cfg.Seed + uint64(c)
		sub.Fault.Seed = cfg.Fault.Seed + uint64(c) // decorrelate the slices' fault streams
		if d.nets[c] == nil {
			d.nets[c] = &Mesh{}
		}
		if err := d.nets[c].Init(sub); err != nil {
			return err
		}
	}
	if balanced {
		d.rr = reuse.Slice(spareRR, nodes)
	}
	counters := d.counters
	d.merged.InjectedFlits = carve(&counters, nodes)
	d.merged.InjectedPackets = carve(&counters, nodes)
	d.merged.EjectedFlits = carve(&counters, nodes)
	return nil
}

// MustNewDouble is NewDouble but panics on error.
func MustNewDouble(cfg Config) *Double {
	d, err := NewDouble(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// MustNewDoubleBalanced is NewDoubleBalanced but panics on error.
func MustNewDoubleBalanced(cfg Config) *Double {
	d, err := NewDoubleBalanced(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Subnet returns the physical network carrying class c.
func (d *Double) Subnet(c TrafficClass) *Mesh { return d.nets[c] }

// CanInject checks whether some slice can take a packet of class at n.
func (d *Double) CanInject(n NodeID, class TrafficClass) bool {
	if !d.balanced {
		return d.nets[class].CanInject(n, class)
	}
	return d.nets[0].CanInject(n, class) || d.nets[1].CanInject(n, class)
}

// TryInject routes p to its class's slice (dedicated) or to the source's
// next slice in rotation (balanced), falling back to the other slice when
// the preferred one is full.
func (d *Double) TryInject(p *Packet) bool {
	if !d.balanced {
		return d.nets[p.Class].TryInject(p)
	}
	first := int(d.rr[p.Src]) % 2
	d.rr[p.Src]++
	if d.nets[first].TryInject(p) {
		return true
	}
	return d.nets[1-first].TryInject(p)
}

// Tick advances both slices, slice 0 first.
func (d *Double) Tick() {
	for _, n := range d.nets {
		n.Tick()
	}
}

// Delivered merges deliveries from both slices in ejection order: by
// arrival cycle, and within a cycle slice 0's before slice 1's, the order
// Tick runs them in. A batch drained every cycle is slice 0's list followed
// by slice 1's. Like every Network, the batch is valid until the next
// Delivered call.
func (d *Double) Delivered() []*Packet {
	a, b := d.nets[0].Delivered(), d.nets[1].Delivered()
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	d.deliv = d.deliv[:0]
	for len(a) > 0 && len(b) > 0 {
		if b[0].ArrivedAt < a[0].ArrivedAt {
			d.deliv, b = append(d.deliv, b[0]), b[1:]
		} else {
			d.deliv, a = append(d.deliv, a[0]), a[1:]
		}
	}
	d.deliv = append(append(d.deliv, a...), b...)
	return d.deliv
}

// Cycle returns elapsed cycles (slices tick in lockstep).
func (d *Double) Cycle() uint64 { return d.nets[0].Cycle() }

// Quiet reports whether both slices are empty.
func (d *Double) Quiet() bool { return d.nets[0].Quiet() && d.nets[1].Quiet() }

// Health returns the first slice's verdict that is non-nil.
func (d *Double) Health() error {
	for _, n := range d.nets {
		if err := n.Health(); err != nil {
			return err
		}
	}
	return nil
}

// NextWorkCycle returns the earlier of the two slices' horizons; the
// slices tick in lockstep so their cycle counters agree.
func (d *Double) NextWorkCycle() uint64 {
	a, b := d.nets[0].NextWorkCycle(), d.nets[1].NextWorkCycle()
	if b < a {
		return b
	}
	return a
}

// SkipAhead credits k idle ticks to both slices.
func (d *Double) SkipAhead(k uint64) {
	d.nets[0].SkipAhead(k)
	d.nets[1].SkipAhead(k)
}

// Stats merges both slices' counters into one snapshot, valid until the
// next Stats call (the merge target is reused rather than built fresh).
func (d *Double) Stats() *NetStats {
	a, b := d.nets[0].Stats(), d.nets[1].Stats()
	m := &d.merged
	m.Cycles = a.Cycles
	m.FlitHops = a.FlitHops + b.FlitHops
	m.InjectedBytes = a.InjectedBytes + b.InjectedBytes
	for i := range m.InjectedFlits {
		m.InjectedFlits[i] = a.InjectedFlits[i] + b.InjectedFlits[i]
		m.InjectedPackets[i] = a.InjectedPackets[i] + b.InjectedPackets[i]
		m.EjectedFlits[i] = a.EjectedFlits[i] + b.EjectedFlits[i]
	}
	m.NetLatency = a.NetLatency.Merge(b.NetLatency)
	m.CorruptFlits = a.CorruptFlits + b.CorruptFlits
	m.DroppedPackets = a.DroppedPackets + b.DroppedPackets
	m.Retransmits = a.Retransmits + b.Retransmits
	m.LostCredits = a.LostCredits + b.LostCredits
	m.StuckVCFaults = a.StuckVCFaults + b.StuckVCFaults
	m.RetriesPerPacket = a.RetriesPerPacket.Merge(b.RetriesPerPacket)
	return m
}
