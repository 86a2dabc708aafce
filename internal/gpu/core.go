// Package gpu models the compute nodes of the baseline accelerator (Fig 4):
// fine-grained multithreaded SIMT cores that issue 32-thread warps over an
// 8-wide SIMD pipeline, coalesce global memory accesses, and filter them
// through a write-back write-allocate L1 with MSHRs.
//
// The functional front end (instruction fetch/decode of real CUDA kernels)
// is replaced by a workload.Generator; see the workload package for why
// this substitution preserves the timing behaviour the NoC study needs.
package gpu

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/reuse"
	"repro/internal/ring"
	"repro/internal/workload"
)

// Scheduler selects the warp scheduling policy.
type Scheduler int

// Warp schedulers.
const (
	// SchedRR issues round-robin among ready warps (Table II baseline).
	SchedRR Scheduler = iota
	// SchedGTO is greedy-then-oldest: keep issuing from the current warp
	// until it stalls, then fall back to the lowest-numbered ready warp.
	SchedGTO
)

// Config sizes one compute core (Table II defaults via DefaultConfig).
type Config struct {
	WarpSize     int // scalar threads per warp
	SIMDWidth    int // lanes; a warp issues over WarpSize/SIMDWidth cycles
	MSHRs        int
	MSHRMergeCap int // waiters per MSHR entry (<=0: unlimited)
	L1           cache.Config
	OutQueueCap  int // read requests waiting to enter the NoC
	Scheduler    Scheduler
}

// DefaultConfig returns the Table II core: 32-thread warps on an 8-wide
// pipeline, 64 MSHRs and a 16 KB 4-way L1 with 64 B lines.
func DefaultConfig() Config {
	return Config{
		WarpSize:     32,
		SIMDWidth:    8,
		MSHRs:        64,
		MSHRMergeCap: 8,
		L1:           cache.Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 4},
		OutQueueCap:  16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.WarpSize <= 0 || c.SIMDWidth <= 0 || c.WarpSize%c.SIMDWidth != 0 {
		return fmt.Errorf("gpu: WarpSize must be a positive multiple of SIMDWidth")
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("gpu: MSHRs must be positive")
	}
	if c.OutQueueCap <= 0 {
		return fmt.Errorf("gpu: OutQueueCap must be positive")
	}
	return c.L1.Validate()
}

// IssueCycles is how many core cycles one warp instruction holds the issue
// slot: WarpSize/SIMDWidth. A core's finite NextWorkCycle horizon is never
// more than this many cycles past its cycle count.
func (c Config) IssueCycles() int { return c.WarpSize / c.SIMDWidth }

// MemRequest is a line-sized message from the core to the memory system:
// a read (miss fetch) or a write (dirty line write-back).
type MemRequest struct {
	Line  addr.Address
	Write bool
}

// warpState tracks one resident warp.
type warpState struct {
	pendingLines []addr.Address // accesses of the current memory instruction not yet issued
	pendingWrite bool
	outstanding  int // line fetches in flight
	done         bool
}

func (w *warpState) ready() bool {
	return !w.done && w.outstanding == 0 && len(w.pendingLines) == 0
}

// maxWarps is the most resident warps a core supports: one readyMask bit each.
const maxWarps = 64

// Stats counts core activity.
type Stats struct {
	Cycles       uint64
	ScalarInstrs uint64
	LineAccesses uint64
}

// IPC returns scalar instructions per core cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ScalarInstrs) / float64(s.Cycles)
}

// Core is one SIMT compute core.
type Core struct {
	cfg    Config
	gen    *workload.Generator
	warps  []warpState
	rrNext int

	// Warp state summarized where it changes, so no per-cycle path scans
	// the warps. readyMask bit w is set iff warps[w].ready(). pendingWarp
	// is the one warp holding pendingLines (-1: none): issue dispatches at
	// most one memory instruction per tick and memoryUnit drains it in the
	// same tick. busyWarps counts warps with fetches outstanding or lines
	// pending.
	readyMask   uint64
	pendingWarp int
	busyWarps   int

	l1   cache.Cache
	mshr cache.MSHR // also records which in-flight lines must fill dirty

	memQ          ring.Ring[memAccess]  // coalesced accesses awaiting the L1 port
	outQ          ring.Ring[MemRequest] // grows past OutQueueCap only for write-backs
	issueCooldown int
	memBlocked    bool // memQ front failed tryAccess; only external events unblock it

	flushed  bool
	flushBuf []addr.Address // the end-of-kernel flush's dirty lines
	stats    Stats
}

type memAccess struct {
	warp  int
	line  addr.Address
	write bool
}

// New builds a core running the given generator.
func New(cfg Config, gen *workload.Generator) (*Core, error) {
	c := &Core{}
	if err := c.Init(cfg, gen); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds c in place, as New does, reusing the arrays of c's previous
// build, its L1's, MSHR table's and queues' among them, where their
// capacity fits. Every warp starts ready and keeps its pending-line
// slice's backing array.
func (c *Core) Init(cfg Config, gen *workload.Generator) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if gen == nil {
		return fmt.Errorf("gpu: generator must not be nil")
	}
	prof := gen.Profile()
	if err := checkWarpCount(prof.Warps); err != nil {
		return err
	}
	*c = Core{
		cfg:         cfg,
		gen:         gen,
		warps:       reuse.Keep(c.warps, prof.Warps),
		readyMask:   1<<uint(prof.Warps) - 1, // every warp starts ready
		pendingWarp: -1,
		l1:          c.l1,
		mshr:        c.mshr,
		memQ:        c.memQ,
		outQ:        c.outQ,
		flushBuf:    c.flushBuf[:0],
	}
	for w := range c.warps {
		c.warps[w] = warpState{pendingLines: c.warps[w].pendingLines[:0]}
	}
	if err := c.l1.Init(cfg.L1); err != nil {
		return err
	}
	if err := c.mshr.Init(cfg.MSHRs, cfg.MSHRMergeCap); err != nil {
		return err
	}
	c.memQ.Init(16, 0)
	c.outQ.Init(cfg.OutQueueCap, 0)
	return nil
}

// checkWarpCount rejects a profile with more resident warps than readyMask
// has bits.
func checkWarpCount(n int) error {
	if n > maxWarps {
		return fmt.Errorf("gpu: %d warps per core exceed the %d the ready mask holds", n, maxWarps)
	}
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, gen *workload.Generator) *Core {
	c, err := New(cfg, gen)
	if err != nil {
		panic(err)
	}
	return c
}

// Tick advances one core clock cycle.
func (c *Core) Tick() {
	c.stats.Cycles++
	c.issue()
	c.memoryUnit()
	if c.kernelDrained() {
		c.flushDirty()
	}
}

// kernelDrained reports whether the end-of-kernel flush is due: every
// instruction issued and every access serviced, but dirty lines not yet
// written back.
func (c *Core) kernelDrained() bool {
	return !c.flushed && c.gen.AllDone() && c.busyWarps == 0 && c.memQ.Len() == 0
}

// issue dispatches at most one warp instruction per WarpSize/SIMDWidth
// cycles among ready warps, per the configured scheduling policy.
func (c *Core) issue() {
	if c.issueCooldown > 0 {
		c.issueCooldown--
		return
	}
	// Take the ready warps in scheduling order. A warp whose stream turns
	// out to be exhausted retires without using the slot and clears its
	// own ready bit, so the next pick is the warp after it, exactly the
	// warp a position-by-position scan sees next.
	for {
		w, ok := schedPick(c.cfg.Scheduler, c.readyMask, c.rrNext, len(c.warps))
		if !ok {
			break
		}
		if c.issueWarp(w) {
			return
		}
	}
}

// schedPick returns the first ready warp of the issue slot's candidate
// order. SchedRR orders warps by rotation from rrNext; SchedGTO tries the
// greedy warp rrNext first, then the rest oldest (lowest index) first. The
// ready mask is permuted into that order so the earliest candidate is the
// lowest set bit.
func schedPick(s Scheduler, ready uint64, rrNext, n int) (w int, ok bool) {
	r := uint(rrNext)
	var win uint64
	if s == SchedGTO {
		below := ready & (1<<r - 1)
		above := ready &^ (2<<r - 1)
		win = ready>>r&1 | below<<1 | above
	} else {
		win = (ready>>r | ready<<(uint(n)-r)) & (1<<uint(n) - 1)
	}
	if win == 0 {
		return 0, false
	}
	pos := bits.TrailingZeros64(win)
	switch {
	case s != SchedGTO:
		w = rrNext + pos
		if w >= n {
			w -= n
		}
	case pos == 0:
		w = rrNext
	case pos <= rrNext:
		w = pos - 1
	default:
		w = pos
	}
	return w, true
}

// issueWarp issues ready warp w's next instruction. It returns false,
// leaving the issue slot free, when the warp's stream is exhausted.
func (c *Core) issueWarp(w int) bool {
	ws := &c.warps[w]
	ins, ok := c.gen.Next(w)
	if !ok {
		ws.done = true
		c.readyMask &^= 1 << uint(w)
		return false
	}
	if c.cfg.Scheduler == SchedGTO {
		c.rrNext = w // stay greedy on the issuing warp
	} else {
		c.rrNext = (w + 1) % len(c.warps)
	}
	c.issueCooldown = c.cfg.IssueCycles() - 1
	c.stats.ScalarInstrs += uint64(ins.ActiveThreads)
	if ins.Mem {
		ws.pendingLines = append(ws.pendingLines[:0], ins.Lines...)
		ws.pendingWrite = ins.Write
		if len(ws.pendingLines) > 0 {
			c.readyMask &^= 1 << uint(w)
			c.pendingWarp = w
			c.busyWarps++
		}
	}
	return true
}

// memoryUnit services one coalesced line access per cycle through the L1.
func (c *Core) memoryUnit() {
	// Move the just-issued memory instruction's accesses into the L1 port
	// queue (one warp's accesses enqueue as a burst, preserving coalescing).
	if w := c.pendingWarp; w >= 0 {
		ws := &c.warps[w]
		for _, line := range ws.pendingLines {
			c.memQ.Push(memAccess{warp: w, line: line, write: ws.pendingWrite})
		}
		ws.outstanding += len(ws.pendingLines)
		ws.pendingLines = ws.pendingLines[:0]
		c.pendingWarp = -1
	}
	if c.memQ.Len() == 0 {
		return
	}
	if c.memBlocked {
		// Nothing has delivered a fill or drained the out-queue since the
		// front last failed, so a retry fails the same way: an L1 miss
		// that neither merges nor allocates. This is the one-tick case of
		// the credit SkipAhead applies to a skipped window.
		c.l1.CreditMissRetries(1)
		return
	}
	if !c.tryAccess(*c.memQ.Front()) {
		c.memBlocked = true
		return
	}
	c.memQ.Pop()
}

// tryAccess performs one L1 access; false means the access must retry
// (MSHR or outbound queue full).
func (c *Core) tryAccess(acc memAccess) bool {
	c.stats.LineAccesses++
	if c.l1.Access(acc.line, acc.write) {
		c.lineDone(acc.warp)
		return true
	}
	// Miss: merge onto an in-flight fetch or start a new one.
	switch c.mshr.Allocate(acc.line, cache.Waiter(acc.warp), acc.write, c.outQ.Len() < c.cfg.OutQueueCap) {
	case cache.AllocStallFull:
		c.stats.LineAccesses--
		return false
	case cache.AllocNew:
		c.outQ.Push(MemRequest{Line: acc.line})
	}
	return true
}

// DeliverFill completes an in-flight line fetch (a read reply arrived).
func (c *Core) DeliverFill(line addr.Address) {
	c.memBlocked = false // freed MSHR entry / filled line may unblock memQ
	waiters, dirty := c.mshr.Fill(line)
	victim, wb := c.l1.Fill(line, dirty)
	if wb {
		// Write-backs bypass the read-request cap: they carry the line out.
		c.outQ.Push(MemRequest{Line: victim, Write: true})
	}
	for _, w := range waiters {
		c.lineDone(int(w))
	}
}

// lineDone retires one of warp w's in-flight line accesses; the last one
// makes the warp idle and, unless it is done, ready again.
func (c *Core) lineDone(w int) {
	ws := &c.warps[w]
	ws.outstanding--
	if ws.outstanding == 0 {
		c.busyWarps--
		if ws.ready() {
			c.readyMask |= 1 << uint(w)
		}
	}
}

// PopRequest removes the next outbound memory request, if any.
func (c *Core) PopRequest() (MemRequest, bool) {
	if c.outQ.Len() == 0 {
		return MemRequest{}, false
	}
	c.memBlocked = false // out-queue space may unblock a stalled miss
	return c.outQ.Pop(), true
}

// PeekRequest returns the next outbound request without removing it.
func (c *Core) PeekRequest() (MemRequest, bool) {
	if c.outQ.Len() == 0 {
		return MemRequest{}, false
	}
	return *c.outQ.Front(), true
}

// flushDirty writes back all dirty L1 lines at kernel end (the baseline's
// software-managed coherence flush, §II).
func (c *Core) flushDirty() {
	c.flushBuf = c.l1.FlushDirty(c.flushBuf[:0])
	for _, line := range c.flushBuf {
		c.outQ.Push(MemRequest{Line: line, Write: true})
	}
	c.flushed = true
}

// Done reports whether the kernel finished: all instructions issued, all
// fetches returned, the end-of-kernel flush emitted, and nothing queued.
func (c *Core) Done() bool {
	return c.gen.AllDone() && c.busyWarps == 0 && c.memQ.Len() == 0 &&
		c.flushed && c.outQ.Len() == 0 && c.mshr.InFlight() == 0
}

// NeverCycle is the NextWorkCycle sentinel for "no future work without an
// external event" (a fill delivery or an out-queue drain).
const NeverCycle = ^uint64(0)

// NextWorkCycle returns a conservative bound on the next cycle count at
// which Tick would do something beyond the deterministic idle-tick credits
// that SkipAhead replays (the cycle counter, the issue cooldown and blocked
// front-of-memQ retries). Until that cycle — or an external DeliverFill /
// PopRequest, which the caller must treat as invalidating — every Tick is
// equivalent to a unit of SkipAhead. A finite horizon is at most
// Config.IssueCycles() past the cycle count, so the closed loop can park
// the core in a timer wheel of that many slots and tick it again then.
func (c *Core) NextWorkCycle() uint64 {
	// The end-of-kernel flush, an untried (or externally unblocked) memQ
	// front and a just-issued memory instruction each work on the next
	// tick; a blocked front only retries, which SkipAhead credits.
	if c.kernelDrained() || c.memQ.Len() > 0 && !c.memBlocked || c.pendingWarp >= 0 {
		return c.stats.Cycles + 1
	}
	if c.readyMask != 0 {
		// Issues (or discovers generator exhaustion) once the pipeline
		// cooldown expires.
		return c.stats.Cycles + uint64(c.issueCooldown) + 1
	}
	// Every warp is done or waiting on outstanding fetches; only
	// DeliverFill wakes the core.
	return NeverCycle
}

// SkipAhead credits k consecutive idle ticks in O(1), with counters
// bit-identical to calling Tick k times under NextWorkCycle's guarantee:
// the cycle counter advances, the issue cooldown drains, and a blocked
// memQ front accrues its per-cycle retry miss accounting.
func (c *Core) SkipAhead(k uint64) {
	c.stats.Cycles += k
	c.issueCooldown -= int(min(k, uint64(c.issueCooldown)))
	if c.memQ.Len() > 0 {
		c.l1.CreditMissRetries(k)
	}
}

// Stats returns the activity counters.
func (c *Core) Stats() Stats { return c.stats }

// L1Stats exposes the L1 cache counters.
func (c *Core) L1Stats() cache.Stats { return c.l1.Stats() }
