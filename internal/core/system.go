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
	"repro/internal/reuse"
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
	sched     timing.Scheduler
	net       noc.Network
	backend   noc.Backend
	mapper    *addr.Mapper
	gens      []workload.Generator // one per core; cores[i] runs gens[i]
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
	s := &System{}
	if err := s.build(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// build builds the system for cfg into s, the one construction path:
// NewSystem builds into an empty System, and a Slot into the one its last
// run finished. Every component is initialized in place, from a struct
// literal, on the arrays its previous build left (re-sliced and cleared
// where their capacity fits), so a rebuilt System equals a fresh one field
// for field and a rebuild of the same shape allocates almost nothing. The
// network is rebuilt in place when the last one was of the same kind, and
// the packet pool keeps its free list.
func (s *System) build(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	spare := *s
	*s = System{
		cfg:       cfg,
		gens:      spare.gens,
		cores:     spare.cores,
		coreNodes: spare.coreNodes[:0],
		mcs:       spare.mcs,
		mcNodes:   spare.mcNodes[:0],
		pool:      spare.pool,
	}
	if err := s.sched.Init(cfg.Clocks.CoreMHz, cfg.Clocks.IcntMHz, cfg.Clocks.DRAMMHz); err != nil {
		return err
	}
	if err := s.buildNet(spare.net); err != nil {
		return err
	}

	var err error
	s.mapper, err = addr.NewMapper(addr.Config{
		NumMCs:     len(cfg.Noc.MCs),
		LineBytes:  uint64(cfg.Core.L1.LineBytes),
		BanksPerMC: uint64(cfg.Mem.DRAM.NumBanks),
	})
	if err != nil {
		return err
	}

	computeNodes := s.backend.ComputeNodes()
	n := len(computeNodes)
	s.gens = reuse.Keep(s.gens, n)
	s.cores = reuse.Keep(s.cores, n)
	for i, node := range computeNodes {
		if err := s.gens[i].Init(cfg.Workload, i, n, cfg.Seed); err != nil {
			return err
		}
		if s.cores[i] == nil {
			s.cores[i] = &gpu.Core{}
		}
		if err := s.cores[i].Init(cfg.Core, &s.gens[i]); err != nil {
			return err
		}
		s.coreNodes = append(s.coreNodes, node)
	}

	mcNodes := s.backend.MCs()
	s.mcs = reuse.Keep(s.mcs, len(mcNodes))
	for j, node := range mcNodes {
		if s.mcs[j] == nil {
			s.mcs[j] = &mem.MCNode{}
		}
		if err := s.mcs[j].Init(cfg.Mem, node, s.mapper); err != nil {
			return err
		}
		s.mcs[j].SetPool(&s.pool)
		s.mcNodes = append(s.mcNodes, node)
	}
	s.initLoop(&spare.loop)
	return nil
}

// buildNet builds the configured network into spare, the network s held
// before, when it is of the same kind, and into a new one otherwise.
func (s *System) buildNet(spare noc.Network) error {
	cfg := s.cfg
	switch cfg.Net {
	case NetMesh:
		m, ok := spare.(*noc.Mesh)
		if !ok {
			m = &noc.Mesh{}
		}
		if err := m.Init(cfg.Noc); err != nil {
			return err
		}
		s.net, s.backend = m, m.Backend()
	case NetDouble, NetDoubleBalanced:
		d, ok := spare.(*noc.Double)
		if !ok {
			d = &noc.Double{}
		}
		if err := d.Init(cfg.Noc, cfg.Net == NetDoubleBalanced); err != nil {
			return err
		}
		s.net, s.backend = d, d.Subnet(noc.ClassRequest).Backend()
	case NetPerfect, NetIdealCapped:
		capFlits := 0.0
		if cfg.Net == NetIdealCapped {
			capFlits = cfg.IdealCapFlits
		}
		n, ok := spare.(*noc.Ideal)
		if !ok {
			n = &noc.Ideal{}
		}
		if err := n.Init(cfg.Noc.Width*cfg.Noc.Height, cfg.Noc.FlitBytes, capFlits); err != nil {
			return err
		}
		// Node roles come from a routing-neutral backend of the configured
		// topology (half-routers irrelevant on an ideal network): the cached
		// one a DOR mesh of this geometry uses.
		role := cfg.Noc
		role.Checkerboard = false
		role.Routing = noc.RoutingDOR
		backend, err := noc.BuildBackend(role)
		if err != nil {
			return err
		}
		s.net, s.backend = n, backend
	default:
		return fmt.Errorf("core: unknown network kind %v", cfg.Net)
	}
	return nil
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
//
// Run is Slot.Run on an empty slot: it builds a new System.
func Run(ctx context.Context, cfg Config) (Result, error) {
	var sl Slot
	return sl.Run(ctx, cfg)
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
