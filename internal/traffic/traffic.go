// Package traffic provides the open-loop network evaluation harness used
// for Fig 21: synthetic many-to-few-to-many traffic (uniform-random and
// hotspot), Bernoulli injection at a swept offered load, and latency /
// accepted-throughput measurement.
//
// Following the paper's open-loop setup, compute nodes inject single-flit
// read requests to the memory-controller nodes; each request arriving at an
// MC triggers a multi-flit reply back to the requester. Only read traffic
// is simulated.
package traffic

import (
	"fmt"
	"math/bits"

	"repro/internal/noc"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Pattern selects the request destination distribution.
type Pattern int

// Patterns.
const (
	// UniformRandom sends each request to an MC chosen uniformly.
	UniformRandom Pattern = iota
	// Hotspot sends 20% of requests to one MC and spreads the rest
	// uniformly (the Fig 21(b) configuration).
	Hotspot
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case Hotspot:
		return "hotspot"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// HotspotFraction is the share of requests aimed at the hotspot MC.
const HotspotFraction = 0.20

// Config parameterizes one open-loop run.
type Config struct {
	Pattern       Pattern
	InjectionRate float64 // offered load, flits/cycle per compute node
	ReplyBytes    int     // reply payload size (64 B => 4 flits at 16 B)
	WarmupCycles  int
	MeasureCycles int
	DrainCycles   int // extra cycles to let measured packets arrive
	Seed          uint64

	// NoIdleSkip disables idle-horizon fast-forwarding during the drain
	// phase. Once injection stops and every reply backlog is empty the
	// only remaining work is the network's own, so the harness normally
	// jumps the cycle loop to the network's NextWorkCycle horizon instead
	// of ticking an empty mesh. Results are bit-identical either way (the
	// Bernoulli injectors draw no RNG outside the injection phases); the
	// zero value keeps skipping on.
	NoIdleSkip bool

	// Lanes batches that many seed replicas (Seed, Seed+1, …) of this
	// operating point through one lockstep cycle loop (RunLanes). Like the
	// closed-loop lane kernel, batching is wall-clock-only: lane i is
	// bit-identical to a solo Run with Seed+i. 0 and 1 both mean solo.
	Lanes int
}

// DefaultConfig returns the Fig 21 setup: 1-flit requests, 4-flit replies.
func DefaultConfig() Config {
	return Config{
		Pattern:       UniformRandom,
		InjectionRate: 0.02,
		ReplyBytes:    64,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		DrainCycles:   20000,
		Seed:          7,
	}
}

// Result reports one open-loop measurement.
type Result struct {
	OfferedLoad     float64 // flits/cycle/node offered at compute nodes
	AcceptedLoad    float64 // flits/cycle/node accepted network-wide
	AvgLatency      float64 // mean request+reply packet network latency
	P50Latency      float64 // median packet latency
	P99Latency      float64 // tail packet latency
	AvgRoundTrip    float64 // mean request-inject to reply-arrival latency
	Saturated       bool    // reply backlogs grew or source queues overflowed
	MeasuredPackets int
	ReplyInjectRate float64 // mean reply packets/cycle injected per MC node
}

// Runner drives one network configuration across offered loads.
type Runner struct {
	build func() (noc.Network, noc.Backend)
}

// NewRunner wraps a network constructor. build must return a fresh network
// (and its topology backend, which supplies node roles) on every call so
// sweeps are independent.
func NewRunner(build func() (noc.Network, noc.Backend)) *Runner {
	return &Runner{build: build}
}

// NewMeshRunner is a convenience Runner over a noc.Config of any topology
// backend (the name is historical; cfg.Topology may select ring or basejump).
func NewMeshRunner(cfg noc.Config) *Runner {
	return NewRunner(func() (noc.Network, noc.Backend) {
		m := noc.MustNewMesh(cfg)
		return m, m.Backend()
	})
}

// pendingReply is a request's payload while it waits in an MC's reply
// backlog. On the wire it rides unboxed in the packet's typed fields (Line =
// offeredAt, Write = measured; the requester is the request's Src and the
// reply's Dst), so the driver never boxes a value into Packet.Meta.
type pendingReply struct {
	dst       noc.NodeID
	offeredAt uint64 // request offer time, for round-trip measurement
	measured  bool
}

// laneRun is one seed replica's mutable state in the lockstep cycle loop:
// its own network, rng stream, packet pool, reply backlogs and accumulators.
// The loop shares only the cycle counter and the immutable node-role
// geometry.
type laneRun struct {
	net                noc.Network
	rng                *xrand.Rand
	pool               noc.PacketPool
	lat, rtt           stats.Mean
	hist               *stats.Histogram
	measured           int
	dropCycles         int
	replyFlitsInjected uint64
	backlog            []ring.Ring[pendingReply] // per MC, indexed like backend.MCs()
	delivered          []uint64                  // node bitset: this cycle's DeliveredSet
	live               bool
}

// Run measures one offered load point. It is the single-lane case of the
// lockstep loop — with one lane the min-reduced drain skip degenerates to
// the solo fast-forward, which the open-loop golden digests pin bit-exactly.
func (r *Runner) Run(cfg Config) Result {
	cfg.Lanes = 1
	return r.RunLanes(cfg)[0]
}

// RunLanes measures cfg.Lanes seed replicas (Seed, Seed+1, …) of one
// offered load point through a single lockstep cycle loop, returning one
// Result per lane. Each lane keeps its own network and rng; the loop
// advances all live lanes together, min-reduces the drain-phase idle-skip
// horizon across them, and retires a lane individually the moment its
// remaining drain window is provably empty — a retired lane's cycles are
// credited in bulk and it stops contributing to horizons and ticks. Lane i
// is bit-identical to a solo Run with Seed+i.
func (r *Runner) RunLanes(cfg Config) []Result {
	n := cfg.Lanes
	if n <= 0 {
		n = 1
	}
	var comp, mcs []noc.NodeID
	var mcSet []uint64 // node bitset of the MCs
	lanes := make([]*laneRun, n)
	for i := range lanes {
		net, backend := r.build()
		if i == 0 {
			comp = backend.ComputeNodes()
			mcs = backend.MCs()
			if len(mcs) == 0 {
				panic("traffic: network has no MC nodes")
			}
			mcSet = make([]uint64, (backend.NumNodes()+63)/64)
			for _, mc := range mcs {
				mcSet[mc>>6] |= 1 << (uint(mc) & 63)
			}
		}
		l := &laneRun{
			net:       net,
			rng:       xrand.New(cfg.Seed + uint64(i)),
			hist:      stats.NewHistogram(4, 1024), // latency buckets up to 4096 cycles
			backlog:   make([]ring.Ring[pendingReply], len(mcs)),
			delivered: make([]uint64, len(mcSet)),
			live:      true,
		}
		for j := range l.backlog {
			l.backlog[j] = ring.New[pendingReply](8, 0)
		}
		lanes[i] = l
	}
	hot := mcs[0]
	liveN := n

	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	measureStart := uint64(cfg.WarmupCycles)
	measureEnd := uint64(cfg.WarmupCycles + cfg.MeasureCycles)

	for cyc := 0; cyc < total && liveN > 0; cyc++ {
		injecting := cyc < cfg.WarmupCycles+cfg.MeasureCycles
		for _, l := range lanes {
			if !l.live {
				continue
			}
			now := l.net.Cycle()
			if injecting {
				for _, c := range comp {
					if !l.rng.Bool(cfg.InjectionRate) {
						continue
					}
					var dst noc.NodeID
					if cfg.Pattern == Hotspot && len(mcs) > 1 {
						// Exactly HotspotFraction of requests target the hot
						// MC; the rest spread over the remaining controllers.
						// (With a single MC everything goes to it, which the
						// uniform draw below already does.)
						if l.rng.Bool(HotspotFraction) {
							dst = hot
						} else {
							dst = mcs[1+l.rng.Intn(len(mcs)-1)]
						}
					} else {
						dst = mcs[l.rng.Intn(len(mcs))]
					}
					pkt := l.pool.Get()
					pkt.Src, pkt.Dst, pkt.Class, pkt.Bytes = c, dst, noc.ClassRequest, 8
					pkt.Line = now
					pkt.Write = now >= measureStart && now < measureEnd
					if !l.net.TryInject(pkt) {
						l.pool.Put(pkt)
						l.dropCycles++
					}
				}
			}
			// Only nodes the network flags have a batch to drain; the set
			// stays valid for the cycle, since nothing below ticks the
			// network.
			clear(l.delivered)
			l.net.DeliveredSet(l.delivered)
			// MCs turn arrived requests into replies. A delivered batch is
			// consumed in full before the next Get, so recycling its packets
			// cannot alias one still being read.
			for j, mc := range mcs {
				q := &l.backlog[j]
				if l.delivered[mc>>6]&(1<<(uint(mc)&63)) != 0 {
					for _, pkt := range l.net.Delivered(mc) {
						if pkt.Write {
							l.lat.Add(float64(pkt.TotalLatency()))
							l.hist.Add(float64(pkt.TotalLatency()))
						}
						q.Push(pendingReply{dst: pkt.Src, offeredAt: pkt.Line, measured: pkt.Write})
						l.pool.Put(pkt)
					}
				}
				for q.Len() > 0 && l.net.CanInject(mc, noc.ClassReply) {
					pr := q.Front()
					reply := l.pool.Get()
					reply.Src, reply.Dst, reply.Class, reply.Bytes = mc, pr.dst, noc.ClassReply, cfg.ReplyBytes
					reply.Line, reply.Write = pr.offeredAt, pr.measured
					if !l.net.TryInject(reply) {
						l.pool.Put(reply)
						break
					}
					q.Pop()
					l.replyFlitsInjected++
				}
			}
			// Compute nodes absorb replies, walked in ascending node id:
			// that is ComputeNodes order, which fixes the order latency
			// samples are added in, and with it the float sums.
			for wi, w := range l.delivered {
				for w &^= mcSet[wi]; w != 0; w &= w - 1 {
					for _, pkt := range l.net.Delivered(noc.NodeID(wi<<6 + bits.TrailingZeros64(w))) {
						if pkt.Write {
							l.lat.Add(float64(pkt.TotalLatency()))
							l.hist.Add(float64(pkt.TotalLatency()))
							l.rtt.Add(float64(pkt.ArrivedAt - pkt.Line))
							l.measured++
						}
						l.pool.Put(pkt)
					}
				}
			}
		}
		// Drain-phase fast-forward, min-reduced across live lanes: with
		// injection over, a lane whose deliveries are absorbed and whose
		// reply backlogs are empty can only wait on its own network, so the
		// loop may credit idle ticks in bulk (SkipAhead is bit-identical to
		// that many empty Ticks). The shared cycle counter advances by the
		// LARGEST skip every live lane permits; a lane that could skip
		// further just takes provably-idle Ticks instead, which is the same
		// thing. A lane whose horizon clears the end of the run retires on
		// the spot: its remaining window is credited in one skip plus the
		// final tick (exactly the solo epilogue), after which it stops
		// contributing ticks, skips or horizon terms.
		if !cfg.NoIdleSkip && !injecting {
			left := uint64(total - cyc - 1)
			k := left
			for _, l := range lanes {
				if !l.live {
					continue
				}
				if !backlogEmpty(l.backlog) {
					k = 0
					continue
				}
				w := l.net.NextWorkCycle()
				if w >= uint64(total) {
					if left > 0 {
						l.net.SkipAhead(left)
					}
					l.net.Tick()
					l.live = false
					liveN--
					continue
				}
				kl := uint64(0)
				if w > uint64(cyc)+1 {
					kl = w - uint64(cyc) - 1
				}
				if kl < k {
					k = kl
				}
			}
			if liveN == 0 {
				break
			}
			if k > 0 {
				for _, l := range lanes {
					if l.live {
						l.net.SkipAhead(k)
					}
				}
				cyc += int(k)
			}
		}
		for _, l := range lanes {
			if l.live {
				l.net.Tick()
			}
		}
	}

	out := make([]Result, n)
	for i, l := range lanes {
		st := l.net.Stats()
		backlogged := 0
		for j := range l.backlog {
			backlogged += l.backlog[j].Len()
		}
		out[i] = Result{
			OfferedLoad:     cfg.InjectionRate,
			AcceptedLoad:    st.AcceptedFlitsPerCycle(),
			AvgLatency:      l.lat.Value(),
			P50Latency:      l.hist.Percentile(0.50),
			P99Latency:      l.hist.Percentile(0.99),
			AvgRoundTrip:    l.rtt.Value(),
			MeasuredPackets: l.measured,
			Saturated: l.dropCycles > cfg.MeasureCycles*len(comp)/20 ||
				backlogged > 10*len(mcs),
			ReplyInjectRate: float64(l.replyFlitsInjected) / float64(st.Cycles) / float64(len(mcs)),
		}
	}
	return out
}

// backlogEmpty reports whether no MC holds a queued reply.
func backlogEmpty(backlog []ring.Ring[pendingReply]) bool {
	for j := range backlog {
		if backlog[j].Len() > 0 {
			return false
		}
	}
	return true
}

// Sweep runs ascending offered loads and returns one Result per point.
// Reply size scales with the network's flit width via replyBytes.
func (r *Runner) Sweep(base Config, rates []float64) []Result {
	out := make([]Result, 0, len(rates))
	for _, rate := range rates {
		cfg := base
		cfg.InjectionRate = rate
		out = append(out, r.Run(cfg))
	}
	return out
}
