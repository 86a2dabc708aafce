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

	"repro/internal/mem"
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
}

// DefaultConfig returns the Fig 21 setup: 1-flit requests, and replies of
// mem.ReplyBytes (4 flits at 16 B), the closed loop's reply size.
func DefaultConfig() Config {
	return Config{
		Pattern:       UniformRandom,
		InjectionRate: 0.02,
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
// backlog. The reply carries offeredAt in Packet.Line; the requester is the
// request's Src and the reply's Dst.
type pendingReply struct {
	dst       noc.NodeID
	offeredAt uint64 // request offer cycle: the measured rule and round trip
}

// Run measures one offered load point on a fresh network from the Runner's
// constructor. The Runner keeps no state between calls, so repeated Runs of
// the same Config are bit-identical.
func (r *Runner) Run(cfg Config) Result {
	net, backend := r.build()
	comp := backend.ComputeNodes()
	mcs := backend.MCs()
	if len(mcs) == 0 {
		panic("traffic: network has no MC nodes")
	}
	mcOf := make([]int, backend.NumNodes()) // node -> index in mcs, -1 at compute nodes
	for i := range mcOf {
		mcOf[i] = -1
	}
	for j, mc := range mcs {
		mcOf[mc] = j
	}
	hot := mcs[0]

	rng := xrand.New(cfg.Seed)
	var (
		pool                 noc.PacketPool
		lat, rtt             stats.Mean
		measured, dropCycles int
		repliesInjected      uint64
	)
	hist := stats.NewHistogram(4, 1024) // latency buckets up to 4096 cycles

	// One reply backlog per MC, indexed like mcs.
	backlog := make([]ring.Ring[pendingReply], len(mcs))
	for j := range backlog {
		backlog[j] = ring.New[pendingReply](8, 0)
	}

	total := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	// A packet is measured when its request was offered inside the window.
	measureStart := uint64(cfg.WarmupCycles)
	measureEnd := uint64(cfg.WarmupCycles + cfg.MeasureCycles)
	inWindow := func(offeredAt uint64) bool { return offeredAt >= measureStart && offeredAt < measureEnd }

	for cyc := 0; cyc < total; cyc++ {
		injecting := cyc < cfg.WarmupCycles+cfg.MeasureCycles
		if injecting {
			for _, c := range comp {
				if !rng.Bool(cfg.InjectionRate) {
					continue
				}
				var dst noc.NodeID
				if cfg.Pattern == Hotspot && len(mcs) > 1 {
					// Exactly HotspotFraction of requests target the hot
					// MC; the rest spread over the remaining controllers.
					// (With a single MC everything goes to it, which the
					// uniform draw below already does.)
					if rng.Bool(HotspotFraction) {
						dst = hot
					} else {
						dst = mcs[1+rng.Intn(len(mcs)-1)]
					}
				} else {
					dst = mcs[rng.Intn(len(mcs))]
				}
				pkt := pool.Get()
				pkt.Src, pkt.Dst, pkt.Class, pkt.Bytes = c, dst, noc.ClassRequest, 8
				if !net.TryInject(pkt) {
					pool.Put(pkt)
					dropCycles++
				}
			}
		}
		// Requests join their MC's reply backlog and compute nodes absorb
		// replies, in ejection order. Latencies are whole cycles, so the
		// float sums are exact in any order. The batch is consumed in full
		// before the next Get, so recycling its packets cannot alias one
		// still being read.
		for _, pkt := range net.Delivered() {
			if j := mcOf[pkt.Dst]; j >= 0 {
				if inWindow(pkt.OfferedAt) {
					lat.Add(float64(pkt.TotalLatency()))
					hist.Add(float64(pkt.TotalLatency()))
				}
				backlog[j].Push(pendingReply{dst: pkt.Src, offeredAt: pkt.OfferedAt})
			} else if inWindow(pkt.Line) {
				lat.Add(float64(pkt.TotalLatency()))
				hist.Add(float64(pkt.TotalLatency()))
				rtt.Add(float64(pkt.ArrivedAt - pkt.Line))
				measured++
			}
			pool.Put(pkt)
		}
		// MCs turn their backlogs into replies.
		for j, mc := range mcs {
			q := &backlog[j]
			for q.Len() > 0 && net.CanInject(mc, noc.ClassReply) {
				pr := q.Front()
				reply := pool.Get()
				reply.Src, reply.Dst, reply.Class, reply.Bytes = mc, pr.dst, noc.ClassReply, mem.ReplyBytes
				reply.Line = pr.offeredAt
				if !net.TryInject(reply) {
					pool.Put(reply)
					break
				}
				q.Pop()
				repliesInjected++
			}
		}
		// Drain-phase fast-forward: with injection over, deliveries absorbed
		// and every reply backlog empty, only the network's own work is
		// left, so idle ticks may be credited in bulk (SkipAhead is
		// bit-identical to that many empty Ticks). A horizon at or past the
		// end of the run ends it: the remaining window is one skip plus the
		// final tick. Otherwise the loop jumps to one cycle before the
		// horizon and ticks into it.
		if !cfg.NoIdleSkip && !injecting && backlogEmpty(backlog) {
			w := net.NextWorkCycle()
			if w >= uint64(total) {
				if left := uint64(total - cyc - 1); left > 0 {
					net.SkipAhead(left)
				}
				net.Tick()
				break
			}
			if w > uint64(cyc)+1 {
				k := w - uint64(cyc) - 1
				net.SkipAhead(k)
				cyc += int(k)
			}
		}
		net.Tick()
	}

	st := net.Stats()
	backlogged := 0
	for j := range backlog {
		backlogged += backlog[j].Len()
	}
	return Result{
		OfferedLoad:     cfg.InjectionRate,
		AcceptedLoad:    st.AcceptedFlitsPerCycle(),
		AvgLatency:      lat.Value(),
		P50Latency:      hist.Percentile(0.50),
		P99Latency:      hist.Percentile(0.99),
		AvgRoundTrip:    rtt.Value(),
		MeasuredPackets: measured,
		Saturated: dropCycles > cfg.MeasureCycles*len(comp)/20 ||
			backlogged > 10*len(mcs),
		ReplyInjectRate: float64(repliesInjected) / float64(st.Cycles) / float64(len(mcs)),
	}
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
