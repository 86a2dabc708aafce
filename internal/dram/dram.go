// Package dram models one GDDR3 memory channel behind a memory controller:
// a bank state machine honoring the Table II timing parameters
// (tCL=9, tRP=13, tRC=34, tRAS=21, tRCD=12, tRRD=8, in DRAM cycles), an
// out-of-order FR-FCFS (first-ready, first-come-first-served) scheduler with
// a 32-entry request queue, and a shared data bus transferring 16 bytes per
// DRAM clock.
//
// The model is transaction level: when the scheduler issues a request it
// reserves the bank and data bus for the exact command timing the request
// needs (precharge / activate / CAS / burst), which reproduces row-locality
// and bus-efficiency effects without simulating individual DRAM commands.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/reuse"
)

// Timing holds GDDR3 timing parameters in DRAM clock cycles.
type Timing struct {
	CL   uint64 // CAS latency (read command -> first data)
	RP   uint64 // precharge period
	RC   uint64 // activate -> activate, same bank
	RAS  uint64 // activate -> precharge, same bank
	RCD  uint64 // activate -> CAS, same bank
	RRD  uint64 // activate -> activate, different banks
	Bust uint64 // data burst duration (64 B at 16 B/cycle = 4)
}

// DefaultTiming is the paper's GDDR3 configuration (Table II).
func DefaultTiming() Timing {
	return Timing{CL: 9, RP: 13, RC: 34, RAS: 21, RCD: 12, RRD: 8, Bust: 4}
}

// Config parameterizes a Controller.
type Config struct {
	Timing        Timing
	QueueCapacity int // FR-FCFS queue entries (32 in the paper)
	NumBanks      int // banks per channel
}

// DefaultConfig returns the paper configuration.
func DefaultConfig() Config {
	return Config{Timing: DefaultTiming(), QueueCapacity: 32, NumBanks: addr.DefaultBanksPerMC}
}

// Request is one line-sized DRAM transaction.
type Request struct {
	Addr    addr.Address
	IsWrite bool
}

// queued is one request in the controller's queue, threaded into its
// bank's FIFO (or, while unused, the free list) through prev/next.
type queued struct {
	req        Request
	bank       uint64
	row        uint64
	entry      uint64 // arrival order for FCFS tie-break
	prev, next int32  // bank FIFO neighbours, -1 at the ends; next threads the free list
}

type inflight struct {
	req    Request
	doneAt uint64
}

type bank struct {
	rowOpen     bool
	row         uint64
	readyAt     uint64 // earliest cycle the bank accepts its next command
	lastActAt   uint64 // for tRC and tRAS accounting
	everActed   bool
	prechargeAt uint64 // when the currently-scheduled precharge completes (== readyAt path)

	// The bank's queued requests in arrival order (slot indices, -1 when
	// empty), and the oldest of them that hits the open row (-1: none).
	head, tail, hit int32
}

// Stats aggregates controller activity.
type Stats struct {
	BusBusyCycles uint64
	ActiveCycles  uint64 // cycles with pending or in-flight work
}

// Efficiency is the paper's DRAM-efficiency metric: the fraction of cycles
// the data pins transfer data, out of cycles where requests are pending.
func (s Stats) Efficiency() float64 {
	if s.ActiveCycles == 0 {
		return 0
	}
	return float64(s.BusBusyCycles) / float64(s.ActiveCycles)
}

// Controller is one memory channel. Drive it with Tick once per DRAM cycle.
type Controller struct {
	cfg      Config
	mapper   *addr.Mapper
	now      uint64
	slots    []queued // QueueCapacity entries: the bank FIFOs plus the free list
	free     int32    // head of the free list, -1 when the queue is full
	queued   int      // occupied slots
	nextID   uint64
	banks    []bank
	lastAct  uint64 // last activate on any bank, for tRRD
	anyActed bool
	busFree  uint64 // first cycle the data bus is free
	inflight []inflight
	stats    Stats

	// Due cycles gate the two per-tick scans and feed NextWorkCycle, so the
	// gate and the idle-skip horizon cannot disagree. issueDue is the
	// minimum readyAt over banks with queued requests: no tick before it
	// can issue. doneDue is the minimum doneAt over inflight: no tick
	// before it completes a burst. NeverCycle when the respective list is
	// empty.
	issueDue uint64
	doneDue  uint64
	done     []Request // Tick's result scratch, reused every completing tick
}

// NewController builds a controller; mapper supplies bank/row decoding.
func NewController(cfg Config, mapper *addr.Mapper) (*Controller, error) {
	c := &Controller{}
	if err := c.Init(cfg, mapper); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds c in place, as NewController does, reusing the arrays of c's
// previous build where their capacity fits: every queue slot on the free
// list, every bank closed and empty, nothing in flight.
func (c *Controller) Init(cfg Config, mapper *addr.Mapper) error {
	if cfg.QueueCapacity <= 0 {
		return fmt.Errorf("dram: queue capacity must be positive, got %d", cfg.QueueCapacity)
	}
	if cfg.NumBanks <= 0 {
		return fmt.Errorf("dram: bank count must be positive, got %d", cfg.NumBanks)
	}
	if mapper == nil {
		return fmt.Errorf("dram: mapper must not be nil")
	}
	*c = Controller{
		cfg:      cfg,
		mapper:   mapper,
		slots:    reuse.Slice(c.slots, cfg.QueueCapacity),
		banks:    reuse.Slice(c.banks, cfg.NumBanks),
		inflight: c.inflight[:0],
		issueDue: NeverCycle,
		doneDue:  NeverCycle,
		done:     c.done[:0],
	}
	for i := range c.slots {
		c.slots[i] = queued{next: int32(i) + 1}
	}
	c.slots[len(c.slots)-1].next = -1
	for i := range c.banks {
		c.banks[i] = bank{head: -1, tail: -1, hit: -1}
	}
	return nil
}

// MustNewController is NewController but panics on error.
func MustNewController(cfg Config, mapper *addr.Mapper) *Controller {
	c, err := NewController(cfg, mapper)
	if err != nil {
		panic(err)
	}
	return c
}

// CanAccept reports whether the request queue has a free entry.
func (c *Controller) CanAccept() bool { return c.free >= 0 }

// Enqueue adds a request, reporting whether the queue accepted it. A full
// queue refuses the request (returns false) and the caller applies
// backpressure — the NoC ejection path stalls until a slot frees up.
func (c *Controller) Enqueue(req Request) bool {
	if !c.CanAccept() {
		return false
	}
	br := c.mapper.Decode(req.Addr)
	bank := br.Bank % uint64(c.cfg.NumBanks)
	b := &c.banks[bank]
	i := c.free
	q := &c.slots[i]
	c.free = q.next
	*q = queued{req: req, bank: bank, row: br.Row, entry: c.nextID, prev: b.tail, next: -1}
	if b.tail >= 0 {
		c.slots[b.tail].next = i
	} else {
		b.head = i
	}
	b.tail = i
	if b.hit < 0 && b.rowOpen && b.row == br.Row {
		b.hit = i
	}
	c.queued++
	c.nextID++
	c.issueDue = min(c.issueDue, b.readyAt)
	return true
}

// QueueLen returns the current queue occupancy.
func (c *Controller) QueueLen() int { return c.queued }

// Busy reports whether any work is queued or in flight.
func (c *Controller) Busy() bool { return c.queued > 0 || len(c.inflight) > 0 }

// Now returns the controller's cycle counter (Tick count so far).
func (c *Controller) Now() uint64 { return c.now }

// NeverCycle is the NextWorkCycle sentinel for "idle until new requests
// arrive".
const NeverCycle = ^uint64(0)

// NextWorkCycle returns the exact cycle count at which the next Tick does
// real work — issues a transaction or completes a burst. With an empty
// machine it returns NeverCycle; only Enqueue creates new work. Between
// now and the returned cycle each Tick only advances the clock and accrues
// the busy counter, which SkipAhead replays in O(1).
//
// Exactness: a queued request issues on the first tick where its bank's
// readyAt has passed, so the earliest candidate is max(now+1, min of
// readyAt over banks with queued requests); no earlier tick can issue
// anything, and completions fire precisely at their recorded doneAt. Both minima are the cached
// issueDue / doneDue that gate Tick's scans.
func (c *Controller) NextWorkCycle() uint64 {
	next := c.doneDue
	if c.queued > 0 {
		next = min(next, max64(c.now+1, c.issueDue))
	}
	return next
}

// SkipAhead credits k idle ticks in O(1): the clock and the busy-time
// statistic advance exactly as k Ticks would (Busy() is invariant over a
// window with no issues, completions or enqueues).
func (c *Controller) SkipAhead(k uint64) {
	c.now += k
	if c.Busy() {
		c.stats.ActiveCycles += k
	}
}

// Stats returns activity counters.
func (c *Controller) Stats() Stats { return c.stats }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Tick advances one DRAM cycle and returns requests whose data transfer
// completed this cycle. The returned slice is reused: it is valid until the
// next Tick.
func (c *Controller) Tick() []Request {
	c.now++
	if c.Busy() {
		c.stats.ActiveCycles++
	}
	if c.issueDue <= c.now {
		c.schedule()
	}
	if c.doneDue <= c.now {
		return c.complete()
	}
	return nil
}

// schedule issues at most one transaction per cycle using FR-FCFS: the
// oldest row-hit request that can issue now wins; otherwise the oldest
// issuable request. A request can issue when its bank is ready, so the
// pick visits ready banks, not queued requests: the oldest row hit is the
// oldest of the ready banks' cached hits, and the oldest issuable request
// is the oldest of their FIFO heads (entry ids are unique, so both minima
// are the ones a scan of the whole queue in any order finds).
func (c *Controller) schedule() {
	pick, pickHit := int32(-1), false
	for i := range c.banks {
		b := &c.banks[i]
		if b.head < 0 || b.readyAt > c.now {
			continue
		}
		if b.hit >= 0 {
			if !pickHit || c.slots[pick].entry > c.slots[b.hit].entry {
				pick, pickHit = b.hit, true
			}
		} else if !pickHit && (pick < 0 || c.slots[pick].entry > c.slots[b.head].entry) {
			pick = b.head
		}
	}
	if pick < 0 {
		return
	}
	q := &c.slots[pick]
	b := &c.banks[q.bank]
	c.issue(q, pickHit)
	// A row hit leaves the row open and every older request of the bank a
	// miss, so the next hit can only follow it; a miss opened a new row.
	after := q.next
	c.unlink(pick)
	from := b.head
	if pickHit {
		from = after
	}
	b.hit = -1
	for i := from; i >= 0; i = c.slots[i].next {
		if c.slots[i].row == b.row {
			b.hit = i
			break
		}
	}
	// The issue moved one bank's readyAt.
	c.issueDue = NeverCycle
	for i := range c.banks {
		if c.banks[i].head >= 0 {
			c.issueDue = min(c.issueDue, c.banks[i].readyAt)
		}
	}
}

// unlink removes slot i from its bank's FIFO onto the free list.
func (c *Controller) unlink(i int32) {
	q := &c.slots[i]
	b := &c.banks[q.bank]
	if q.prev >= 0 {
		c.slots[q.prev].next = q.next
	} else {
		b.head = q.next
	}
	if q.next >= 0 {
		c.slots[q.next].prev = q.prev
	} else {
		b.tail = q.prev
	}
	*q = queued{next: c.free}
	c.free = i
	c.queued--
}

func (c *Controller) issue(q *queued, rowHit bool) {
	t := &c.cfg.Timing
	b := &c.banks[q.bank]
	casAt := c.now
	if !rowHit {
		actAt := c.now
		if b.rowOpen {
			// Precharge first: respect tRAS since activate.
			preAt := max64(c.now, b.lastActAt+t.RAS)
			actAt = preAt + t.RP
		}
		// Respect tRC (same bank) and tRRD (any bank).
		if b.everActed {
			actAt = max64(actAt, b.lastActAt+t.RC)
		}
		if c.anyActed {
			actAt = max64(actAt, c.lastAct+t.RRD)
		}
		b.lastActAt = actAt
		b.everActed = true
		c.lastAct = actAt
		c.anyActed = true
		b.rowOpen = true
		b.row = q.row
		casAt = actAt + t.RCD
	}
	dataStart := max64(casAt+t.CL, c.busFree)
	dataEnd := dataStart + t.Bust
	c.busFree = dataEnd
	// The bus transfers for exactly the burst duration; the reservation gap
	// before dataStart is idle time and must not count toward efficiency.
	c.stats.BusBusyCycles += t.Bust
	// The bank can take its next CAS once this burst is underway; next
	// activate timing is enforced via lastActAt. Approximate bank busy
	// until the burst completes.
	b.readyAt = dataEnd
	c.inflight = append(c.inflight, inflight{req: q.req, doneAt: dataEnd})
	c.doneDue = min(c.doneDue, dataEnd)
}

// complete retires every burst whose data transfer has finished and
// recomputes doneDue over what remains.
func (c *Controller) complete() []Request {
	c.done = c.done[:0]
	c.doneDue = NeverCycle
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.doneAt <= c.now {
			c.done = append(c.done, f.req)
		} else {
			kept = append(kept, f)
			c.doneDue = min(c.doneDue, f.doneAt)
		}
	}
	c.inflight = kept
	return c.done
}
