package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/timing"
	"repro/internal/workload"
)

// defaultMaxIcntCycles is the safety stop for runs that fail to converge.
const defaultMaxIcntCycles = 30_000_000

// Result summarizes one closed-loop run.
type Result struct {
	Benchmark string
	Config    string

	IPC          float64 // scalar instructions per core clock
	ScalarInstrs uint64
	CoreCycles   uint64
	IcntCycles   uint64

	AvgNetLatency   float64 // mean packet network latency, icnt cycles
	AcceptedBytes   float64 // payload bytes/cycle/node (traffic class metric)
	MCStallFraction float64 // mean over MCs (Fig 11 metric)
	MCInjRate       float64 // mean flits/cycle at MC nodes (Fig 8 x-axis)
	CoreInjRate     float64 // mean flits/cycle at compute nodes
	DRAMEfficiency  float64 // mean over channels
	L1HitRate       float64
	L2HitRate       float64
	TimedOut        bool // hit MaxIcntCycles before completing

	// Resilience outcome.
	Status         string  // one of the Status constants; a runner may add its own
	RetxPackets    uint64  // wire packets re-injected by the timeout machinery
	DroppedPackets uint64  // packets discarded by the end-to-end check
	AvgRetries     float64 // mean retries per delivered transfer
}

// The Result.Status vocabulary of a run. Journals, result documents and
// HTTP replies carry these strings, so they never change; a journal written
// by an older build may also hold "stall" or "livelock", verdicts no run
// reaches any more. Each status is recorded where its verdict is decided,
// and a hang's diagnostic kind is its status.
const (
	StatusOK        = "ok"
	StatusCycleCap  = "cycle-cap" // the MaxIcntCycles safety stop
	StatusDeadlock  = "deadlock"  // the network watchdog saw no flit move
	StatusInvariant = "invariant" // the flit-conservation audit failed
	StatusTimeout   = "timeout"   // the context's deadline expired
	StatusCanceled  = "canceled"  // the context was canceled
)

// OK reports whether the run completed without a degradation verdict.
func (r Result) OK() bool { return r.Status == "" || r.Status == StatusOK }

// System is one assembled accelerator.
type System struct {
	cfg       Config
	sched     *timing.Scheduler
	net       noc.Network
	backend   noc.Backend
	mapper    *addr.Mapper
	cores     []*gpu.Core
	coreNodes []noc.NodeID
	mcs       []*mem.MCNode
	mcNodes   []noc.NodeID
	pool      noc.PacketPool // recycles request/reply packets across the run

	loop // cycle-loop state, see loop.go
}

// NewSystem builds the system for cfg. Its topology backend comes from
// noc.BuildBackend's cache, so systems of one geometry share it.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := timing.NewScheduler(cfg.Clocks.CoreMHz, cfg.Clocks.IcntMHz, cfg.Clocks.DRAMMHz)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, sched: sched}

	switch cfg.Net {
	case NetMesh:
		m, err := noc.NewMesh(cfg.Noc)
		if err != nil {
			return nil, err
		}
		s.net, s.backend = m, m.Backend()
	case NetDouble, NetDoubleBalanced:
		build := noc.NewDouble
		if cfg.Net == NetDoubleBalanced {
			build = noc.NewDoubleBalanced
		}
		d, err := build(cfg.Noc)
		if err != nil {
			return nil, err
		}
		s.net, s.backend = d, d.Subnet(noc.ClassRequest).Backend()
	case NetPerfect, NetIdealCapped:
		capFlits := 0.0
		if cfg.Net == NetIdealCapped {
			capFlits = cfg.IdealCapFlits
		}
		n, err := noc.NewIdeal(cfg.Noc.Width*cfg.Noc.Height, cfg.Noc.FlitBytes, capFlits)
		if err != nil {
			return nil, err
		}
		// Node roles come from a routing-neutral backend of the configured
		// topology (half-routers irrelevant on an ideal network): the cached
		// one a DOR mesh of this geometry uses.
		role := cfg.Noc
		role.Checkerboard = false
		role.Routing = noc.RoutingDOR
		backend, err := noc.BuildBackend(role)
		if err != nil {
			return nil, err
		}
		s.net, s.backend = n, backend
	default:
		return nil, fmt.Errorf("core: unknown network kind %v", cfg.Net)
	}

	s.mapper, err = addr.NewMapper(addr.Config{
		NumMCs:     len(cfg.Noc.MCs),
		LineBytes:  uint64(cfg.Core.L1.LineBytes),
		BanksPerMC: uint64(cfg.Mem.DRAM.NumBanks),
	})
	if err != nil {
		return nil, err
	}

	computeNodes := s.backend.ComputeNodes()
	for i, node := range computeNodes {
		gen, err := workload.NewGenerator(cfg.Workload, i, len(computeNodes), cfg.Seed)
		if err != nil {
			return nil, err
		}
		c, err := gpu.New(cfg.Core, gen)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
		s.coreNodes = append(s.coreNodes, node)
	}

	for _, node := range s.backend.MCs() {
		mc, err := mem.New(cfg.Mem, node, s.mapper)
		if err != nil {
			return nil, err
		}
		mc.SetPool(&s.pool)
		s.mcs = append(s.mcs, mc)
		s.mcNodes = append(s.mcNodes, node)
	}
	s.initLoop()
	return s, nil
}

// Run executes the kernel to completion (or until a degradation verdict)
// and returns the run's statistics. A non-nil error is a *fault.HangError
// (cycle cap, deadlock, invariant violation, or a context verdict); the
// Result is still populated so harnesses can record the degraded run.
//
// The context bounds the run in wall-clock time: a deadline expiry yields
// a "timeout" verdict and a cancellation a "canceled" one, both checked
// every ctxCheckPeriod interconnect cycles so a wedged simulation can
// never outlive its harness. A nil context behaves like
// context.Background().
func Run(ctx context.Context, cfg Config) (Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(ctx)
}

// MustRun is Run with a background context; it panics on configuration
// errors. Degraded runs (hang verdicts from the watchdogs or the cycle
// cap) do not panic: the partial Result comes back with its Status field
// set, preserving the historical behaviour where timed-out runs returned a
// TimedOut result.
func MustRun(cfg Config) Result {
	r, err := Run(context.Background(), cfg)
	var he *fault.HangError
	if err != nil && !errors.As(err, &he) {
		panic(err)
	}
	return r
}

// Run drives the clock domains until the kernel completes, the cycle cap
// trips, a health monitor declares the run degraded, or ctx expires. It is
// the one-lane case of RunLanes: the same step function, with no siblings
// to interleave.
func (s *System) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for s.step(ctx) {
	}
	return s.res, s.runErr
}

// diagnose builds the system-level diagnostic for a cycle-cap or context
// verdict: per-component work snapshots, plus the network's own dump when it
// has one.
func (s *System) diagnose(kind string) *fault.Diagnostic {
	d := &fault.Diagnostic{
		Kind:  kind,
		Cycle: s.sched.Cycles(timing.DomainInterconnect),
	}
	coresDone := 0
	for _, c := range s.cores {
		if c.Done() {
			coresDone++
		}
	}
	mcsBusy := 0
	for _, mc := range s.mcs {
		if mc.Busy() {
			mcsBusy++
		}
	}
	d.Notes = append(d.Notes,
		fmt.Sprintf("%d/%d cores done, %d/%d MCs busy, network quiet=%v",
			coresDone, len(s.cores), mcsBusy, len(s.mcs), s.net.Quiet()))
	if nd, ok := s.net.(interface{ Diagnostics() *fault.Diagnostic }); ok {
		if sub := nd.Diagnostics(); sub != nil {
			d.VCs = append(d.VCs, sub.VCs...)
			d.Notes = append(d.Notes, sub.Notes...)
		}
	}
	if !s.net.Quiet() {
		d.InFlight = 1 // at least the network holds work; exact count is its own
	}
	return d
}

func (s *System) packetFor(src noc.NodeID, req gpu.MemRequest) *noc.Packet {
	bytes := mem.ReadRequestBytes
	if req.Write {
		bytes = mem.WriteRequestBytes
	}
	pkt := s.pool.Get()
	pkt.Src = src
	pkt.Dst = s.mcNodes[s.mapper.MC(req.Line)]
	pkt.Class = noc.ClassRequest
	pkt.Bytes = bytes
	pkt.Line = uint64(req.Line)
	pkt.Write = req.Write
	return pkt
}

// done reports whether the kernel has completed: every core finished (the
// loop records each one as it observes it, see settleCore), the network
// drained and every MC idle.
func (s *System) done() bool {
	for i := range s.cores {
		if !s.doneSet.has(i) {
			return false
		}
	}
	if !s.net.Quiet() {
		return false
	}
	for _, mc := range s.mcs {
		if mc.Busy() {
			return false
		}
	}
	return true
}

func (s *System) result(timedOut bool) Result {
	res := Result{
		Benchmark:  s.cfg.Workload.Abbr,
		Config:     s.cfg.Name,
		CoreCycles: s.sched.Cycles(timing.DomainCore),
		IcntCycles: s.sched.Cycles(timing.DomainInterconnect),
		TimedOut:   timedOut,
	}
	var l1Hits, l1Total uint64
	for _, c := range s.cores {
		st := c.Stats()
		res.ScalarInstrs += st.ScalarInstrs
		cs := c.L1Stats()
		l1Hits += cs.Hits
		l1Total += cs.Hits + cs.Misses
	}
	if res.CoreCycles > 0 {
		res.IPC = float64(res.ScalarInstrs) / float64(res.CoreCycles)
	}
	if l1Total > 0 {
		res.L1HitRate = float64(l1Hits) / float64(l1Total)
	}

	ns := s.net.Stats()
	res.AvgNetLatency = ns.NetLatency.Value()
	res.AcceptedBytes = ns.AcceptedBytesPerCycle()
	res.RetxPackets = ns.Retransmits
	res.DroppedPackets = ns.DroppedPackets
	res.AvgRetries = ns.RetriesPerPacket.Mean()
	for _, node := range s.mcNodes {
		res.MCInjRate += ns.InjectionRate(node)
	}
	res.MCInjRate /= float64(len(s.mcNodes))
	for _, node := range s.coreNodes {
		res.CoreInjRate += ns.InjectionRate(node)
	}
	res.CoreInjRate /= float64(len(s.coreNodes))

	var l2Hits, l2Total uint64
	for _, mc := range s.mcs {
		res.MCStallFraction += mc.Stats().StallFraction()
		res.DRAMEfficiency += mc.DRAMStats().Efficiency()
		cs := mc.L2Stats()
		l2Hits += cs.Hits
		l2Total += cs.Hits + cs.Misses
	}
	res.MCStallFraction /= float64(len(s.mcs))
	res.DRAMEfficiency /= float64(len(s.mcs))
	if l2Total > 0 {
		res.L2HitRate = float64(l2Hits) / float64(l2Total)
	}
	return res
}

// NetStats exposes the interconnect's aggregate counters (per-node flit
// tallies included), primarily for determinism digests and calibration
// tooling. For double networks the snapshot merges both slices.
func (s *System) NetStats() *noc.NetStats { return s.net.Stats() }

// RowLocality returns the mean DRAM row-hit rate across channels (used by
// calibration tooling).
func (s *System) RowLocality() float64 {
	total := 0.0
	for _, mc := range s.mcs {
		total += mc.DRAMStats().RowLocality()
	}
	return total / float64(len(s.mcs))
}
