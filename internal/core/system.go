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
	Status         string  // "ok", "cycle-cap", "deadlock", "livelock", "stall", "invariant"
	RetxPackets    uint64  // wire packets re-injected by the timeout machinery
	DroppedPackets uint64  // packets discarded by the end-to-end check
	AvgRetries     float64 // mean retries per delivered transfer
}

// OK reports whether the run completed without a degradation verdict.
func (r Result) OK() bool { return r.Status == "" || r.Status == "ok" }

// statusOf maps a run error to the Result.Status vocabulary.
func statusOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fault.ErrCycleCap):
		return "cycle-cap"
	case errors.Is(err, fault.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, fault.ErrLivelock):
		return "livelock"
	case errors.Is(err, fault.ErrStall):
		return "stall"
	case errors.Is(err, fault.ErrInvariant):
		return "invariant"
	case errors.Is(err, fault.ErrTimeout):
		return "timeout"
	case errors.Is(err, fault.ErrCanceled):
		return "canceled"
	}
	return "error"
}

// System is one assembled accelerator.
type System struct {
	cfg       Config
	sched     *timing.Scheduler
	net       noc.Network
	backend   noc.Backend
	mapper    *addr.Mapper
	cores     []*gpu.Core
	coreNodes []noc.NodeID
	coreOf    map[noc.NodeID]int
	mcs       []*mem.MCNode
	mcOf      map[noc.NodeID]*mem.MCNode
	mcNodes   []noc.NodeID
	pool      noc.PacketPool // recycles request/reply packets across the run

	// coreQuiet caches, per core, that NextWorkCycle last returned
	// NeverCycle: the core stays asleep until an external event, so the
	// idle-horizon scan can skip its warp tables. Cleared on the only two
	// events that can wake a quiet core — a DeliverFill in deliver() and a
	// PopRequest in injectCoreRequests().
	coreQuiet []bool
}

// NewSystem builds the system for cfg.
func NewSystem(cfg Config) (*System, error) { return newSystem(cfg, nil) }

// newSystem builds the system, optionally sharing a prebuilt topology
// backend (lane-batched seed replicas build geometry and route tables once;
// see RunLanes). A nil share builds the backend from cfg as usual.
func newSystem(cfg Config, share noc.Backend) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched, err := timing.NewScheduler(cfg.Clocks.CoreMHz, cfg.Clocks.IcntMHz, cfg.Clocks.DRAMMHz)
	if err != nil {
		return nil, err
	}
	// Thread the shard request into the network config; the mesh performs
	// its own clamping (column count, fault gating).
	cfg.Noc.Shards = ResolveShards(cfg.Shards)
	s := &System{cfg: cfg, sched: sched}

	switch cfg.Net {
	case NetMesh:
		var m *noc.Mesh
		if share != nil {
			m, err = noc.NewMeshWithBackend(cfg.Noc, share)
		} else {
			m, err = noc.NewMesh(cfg.Noc)
		}
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
		// topology (half-routers irrelevant on an ideal network).
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

	s.coreOf = make(map[noc.NodeID]int)
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
		s.coreOf[node] = i
	}
	s.coreQuiet = make([]bool, len(s.cores))

	s.mcOf = make(map[noc.NodeID]*mem.MCNode)
	for _, node := range s.backend.MCs() {
		mc, err := mem.New(cfg.Mem, node, s.mapper)
		if err != nil {
			return nil, err
		}
		mc.SetPool(&s.pool)
		s.mcs = append(s.mcs, mc)
		s.mcOf[node] = mc
		s.mcNodes = append(s.mcNodes, node)
	}
	return s, nil
}

// Run executes the kernel to completion (or until a degradation verdict)
// and returns the run's statistics. A non-nil error is a *fault.HangError
// (cycle cap, deadlock, livelock, system stall, invariant violation, or a
// context verdict); the Result is still populated so harnesses can record
// the degraded run.
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
	if err != nil && !fault.IsHang(err) {
		panic(err)
	}
	return r
}

// stallCheckPeriod is how often (in interconnect cycles) Run feeds the
// system-level stall watchdog.
const stallCheckPeriod = 64

// ctxCheckPeriod is how often (in interconnect cycles) Run polls its
// context for a deadline or cancellation. Coarse enough to stay off the
// hot path, fine enough that a timed-out run dies within microseconds.
const ctxCheckPeriod = 256

// ctxCondition maps a context error to the typed fault vocabulary.
func ctxCondition(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fault.ErrTimeout
	}
	return fault.ErrCanceled
}

// Run drives the clock domains until the kernel completes, the cycle cap
// trips, a health monitor declares the run degraded, or ctx expires.
func (s *System) Run(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxIcnt := s.cfg.MaxIcntCycles
	if maxIcnt == 0 {
		maxIcnt = defaultMaxIcntCycles
	}
	// The system stall watchdog backs up the network's: it watches total
	// forward progress (instructions, memory work and flit movement), so it
	// also catches hangs outside the network. Same window, in icnt cycles.
	var wd *fault.Watchdog
	if s.cfg.Noc.Fault.Monitored() {
		wd = fault.NewWatchdog(s.cfg.Noc.Fault.WatchdogCycles)
	}
	buf := make([]timing.Domain, 0, 3)
	skip := !s.cfg.NoIdleSkip
	var runErr error
	timedOut := false
	for !s.done() {
		icnt := s.sched.Cycles(timing.DomainInterconnect)
		if icnt >= maxIcnt {
			timedOut = true
			runErr = fault.Hang(fault.ErrCycleCap, s.diagnose("cycle-cap"))
			break
		}
		if icnt%ctxCheckPeriod == 0 {
			if cerr := ctx.Err(); cerr != nil {
				cond := ctxCondition(cerr)
				runErr = fault.Hang(cond, s.diagnose(statusOf(cond)))
				break
			}
		}
		var icntTicked bool
		buf, icntTicked = s.stepEdges(buf)
		if err := s.net.Health(); err != nil {
			runErr = err
			break
		}
		if wd != nil && icnt%stallCheckPeriod == 0 &&
			wd.Observe(icnt, s.progress(), 1) {
			runErr = fault.Hang(fault.ErrStall, s.diagnose("stall"))
			break
		}
		// Attempt a fast-forward only after interconnect edges: idle
		// windows always span whole interconnect cycles, and gating the
		// attempt keeps the horizon scans off the core/DRAM-edge
		// iterations (roughly four in five) during busy phases.
		if skip && icntTicked {
			s.maybeSkip(wd, maxIcnt)
		}
	}
	res := s.result(timedOut)
	res.Status = statusOf(runErr)
	return res, runErr
}

// stepEdges advances the scheduler to its next clock edge and ticks every
// domain that has one there, reusing buf for the edge list. It reports
// whether the interconnect was among them.
func (s *System) stepEdges(buf []timing.Domain) ([]timing.Domain, bool) {
	buf = s.sched.Step(buf)
	icntTicked := false
	for _, d := range buf {
		switch d {
		case timing.DomainCore:
			for _, c := range s.cores {
				c.Tick()
			}
		case timing.DomainInterconnect:
			s.icntTick()
			icntTicked = true
		case timing.DomainDRAM:
			for _, mc := range s.mcs {
				mc.TickDRAM()
			}
		}
	}
	return buf, icntTicked
}

// maybeSkip fast-forwards the scheduler across a fully idle window. It asks
// every subsystem for a conservative next-work horizon, converts each to an
// absolute femtosecond instant, and bulk-advances the scheduler to the
// earliest one with SkipTo; the credited idle edges are replayed onto each
// component with its SkipAhead, which is defined to be bit-identical to
// ticking it that many times under its NextWorkCycle guarantee. When any
// domain has work on its very next edge the method returns without touching
// anything, so the edge-by-edge path stays the ground truth.
func (s *System) maybeSkip(wd *fault.Watchdog, maxIcnt uint64) {
	const never = noc.NeverCycle

	// Core horizon first: in compute-bound phases some core works on its
	// very next tick, so this scan is the cheap early-out. A queued
	// outbound request forces a real interconnect tick (injection). Cores
	// whose NextWorkCycle returned NeverCycle stay asleep until an
	// external event clears coreQuiet, so their warp scans are skipped.
	coreNow := s.sched.Cycles(timing.DomainCore)
	kCore := never
	for i, c := range s.cores {
		if _, ok := c.PeekRequest(); ok {
			return
		}
		if s.coreQuiet[i] {
			continue
		}
		w := c.NextWorkCycle()
		if w == gpu.NeverCycle {
			s.coreQuiet[i] = true
			continue
		}
		if w <= coreNow+1 {
			return // core issues or accesses its L1 on the very next tick
		}
		if k := w - coreNow - 1; k < kCore {
			kCore = k
		}
	}

	// Interconnect horizon: the network itself and each MC's network side
	// ride the same domain. An interconnect tick receives the pre-tick
	// cycle count, so an MC horizon of w means w-icntNow idle ticks, while
	// the network's w (a post-tick count) leaves w-icntNow-1.
	icntNow := s.sched.Cycles(timing.DomainInterconnect)
	kIcnt := never
	if w := s.net.NextWorkCycle(); w != never {
		if w <= icntNow+1 {
			return // network moves flits on the very next tick
		}
		kIcnt = w - icntNow - 1
	}
	for _, mc := range s.mcs {
		w := mc.NextIcntWorkCycle(icntNow)
		if w == mem.NeverCycle {
			continue
		}
		if w <= icntNow {
			return // MC processes or injects on the very next tick
		}
		if k := w - icntNow; k < kIcnt {
			kIcnt = k
		}
	}

	// DRAM horizon. Unlike the gates above, imminent DRAM work only bounds
	// the skip: core and interconnect edges strictly before the next DRAM
	// work edge are still credited, which is where memory-bound phases
	// (every warp parked on an outstanding fetch) win their wall-clock.
	dramNow := s.sched.Cycles(timing.DomainDRAM)
	kDram := never
	for _, mc := range s.mcs {
		w := mc.NextDRAMWorkCycle()
		if w == mem.NeverCycle {
			continue
		}
		if k := w - dramNow - 1; k < kDram {
			kDram = k
		}
	}

	// The stall watchdog samples at interconnect cycles that are multiples
	// of stallCheckPeriod, and Run feeds it the loop-top cycle count; the
	// skip must leave those samples exactly where stepping would put them.
	if wd != nil {
		if wd.Synced(s.progress()) {
			// The recorded window is live: the first sample at or past
			// LastMovement+Window trips (idle windows cannot advance
			// the progress counter). Keep every interconnect edge from
			// that sample's cycle onward un-skipped so the trip — and
			// the domain counters its diagnostic reports — are
			// bit-identical to stepping.
			c := ceilCheck(wd.LastMovement() + wd.Window)
			if c <= icntNow {
				return
			}
			if b := c - icntNow - 1; b < kIcnt {
				kIcnt = b
			}
		} else {
			// Progress advanced since the last sample, so the next
			// sample resets the window; it must observe the same cycle
			// value under skipping as under stepping.
			if b := ceilCheck(icntNow) - icntNow; b < kIcnt {
				kIcnt = b
			}
		}
	}

	// A completed run exits at the next loop-top done() check without
	// ticking again; skipping past that point would tack idle cycles onto
	// the final counters. Checked this late because it only matters once
	// every horizon is quiescent — busy systems returned above.
	if s.done() {
		return
	}

	// Earliest real-work instant across the domains, capped at the cycle
	// limit's own edge so a cycle-cap verdict lands with every counter
	// unchanged.
	h := s.sched.EdgeFs(timing.DomainInterconnect, maxIcnt)
	if kCore != never {
		if t := s.sched.HorizonFs(timing.DomainCore, kCore); t < h {
			h = t
		}
	}
	if kIcnt != never {
		if t := s.sched.HorizonFs(timing.DomainInterconnect, kIcnt); t < h {
			h = t
		}
	}
	if kDram != never {
		if t := s.sched.HorizonFs(timing.DomainDRAM, kDram); t < h {
			h = t
		}
	}
	if h <= s.sched.NextFs() {
		return // no edge strictly inside the idle window
	}
	credits := s.sched.SkipTo(h)
	if n := credits[timing.DomainCore]; n > 0 {
		for _, c := range s.cores {
			c.SkipAhead(n)
		}
	}
	if n := credits[timing.DomainInterconnect]; n > 0 {
		s.net.SkipAhead(n)
		for _, mc := range s.mcs {
			mc.SkipIcnt(n)
		}
	}
	if n := credits[timing.DomainDRAM]; n > 0 {
		for _, mc := range s.mcs {
			mc.SkipDRAM(n)
		}
	}
}

// ceilCheck rounds x up to the next multiple of stallCheckPeriod (a power
// of two).
func ceilCheck(x uint64) uint64 {
	return (x + stallCheckPeriod - 1) &^ uint64(stallCheckPeriod-1)
}

// progress sums the monotonic work counters of every component: cores, MCs
// and the network (flit hops plus the packets it has ever accepted).
func (s *System) progress() uint64 {
	var total uint64
	for _, c := range s.cores {
		total += c.Progress()
	}
	for _, mc := range s.mcs {
		total += mc.Progress()
	}
	ns := s.net.Stats()
	total += ns.FlitHops
	for _, v := range ns.EjectedFlits {
		total += v
	}
	return total
}

// diagnose builds the system-level diagnostic for a cycle-cap or stall
// verdict: per-component work snapshots, plus the network's own dump when
// it has one.
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
	d.Notes = append(d.Notes, fmt.Sprintf("total progress counter %d", s.progress()))
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

// icntTick runs one interconnect cycle: core requests enter the network,
// MCs process and inject replies, the network moves flits, and deliveries
// fan back out to cores and MCs.
func (s *System) icntTick() {
	s.injectCoreRequests()
	cycle := s.net.Cycle()
	for _, mc := range s.mcs {
		mc.TickIcnt(cycle, s.net)
	}
	s.net.Tick()
	s.deliver()
}

func (s *System) injectCoreRequests() {
	for i, c := range s.cores {
		for {
			req, ok := c.PeekRequest()
			if !ok {
				break
			}
			pkt := s.packetFor(s.coreNodes[i], req)
			if !s.net.TryInject(pkt) {
				s.pool.Put(pkt)
				break
			}
			c.PopRequest()
			s.coreQuiet[i] = false // out-queue space may unblock a stalled miss
		}
	}
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

func (s *System) deliver() {
	for idx, node := range s.coreNodes {
		for _, pkt := range s.net.Delivered(node) {
			if pkt.Class != noc.ClassReply {
				panic(fmt.Sprintf("core: compute node %d received non-reply packet %d", node, pkt.ID))
			}
			s.cores[idx].DeliverFill(addr.Address(pkt.Line))
			s.coreQuiet[idx] = false
			s.pool.Put(pkt)
		}
	}
	for i, node := range s.mcNodes {
		for _, pkt := range s.net.Delivered(node) {
			s.mcs[i].AcceptRequest(pkt) // copies the payload out
			s.pool.Put(pkt)
		}
	}
}

func (s *System) done() bool {
	for _, c := range s.cores {
		if !c.Done() {
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

// AvgDRAMQueue returns the mean DRAM queue occupancy across channels.
func (s *System) AvgDRAMQueue() float64 {
	total := 0.0
	for _, mc := range s.mcs {
		st := mc.DRAMStats()
		if st.TotalQueueSamples > 0 {
			total += float64(st.QueueOccupancySum) / float64(st.TotalQueueSamples)
		}
	}
	return total / float64(len(s.mcs))
}
