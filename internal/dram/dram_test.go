package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/xrand"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	m := addr.MustNewMapper(addr.Config{})
	c, err := NewController(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// run ticks the controller until n requests complete or maxCycles elapse.
func run(t *testing.T, c *Controller, n int, maxCycles int) []Request {
	t.Helper()
	var done []Request
	for i := 0; i < maxCycles && len(done) < n; i++ {
		done = append(done, c.Tick()...)
	}
	if len(done) < n {
		t.Fatalf("only %d/%d requests completed in %d cycles", len(done), n, maxCycles)
	}
	return done
}

func TestNewControllerValidation(t *testing.T) {
	m := addr.MustNewMapper(addr.Config{})
	if _, err := NewController(Config{QueueCapacity: 0, NumBanks: 8}, m); err == nil {
		t.Error("zero queue capacity accepted")
	}
	if _, err := NewController(Config{QueueCapacity: 32, NumBanks: 0}, m); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := NewController(DefaultConfig(), nil); err == nil {
		t.Error("nil mapper accepted")
	}
}

func TestSingleReadLatency(t *testing.T) {
	c := newTestController(t)
	req := Request{Addr: 64}
	c.Enqueue(req)
	done := run(t, c, 1, 200)
	// Cold bank: activate (tRCD=12) + CAS (tCL=9) + burst (4) after issue on
	// cycle 1 => completion around cycle 26. Allow slack for model details.
	tm := DefaultTiming()
	minLat := tm.RCD + tm.CL + tm.Bust
	if c.now < minLat {
		t.Errorf("completed at cycle %d, faster than tRCD+tCL+tBurst=%d", c.now, minLat)
	}
	if done[0] != req {
		t.Errorf("completed %+v, want %+v", done[0], req)
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	// Two requests to the same row complete much sooner than two to
	// different rows of the same bank.
	sameRowCycles := cyclesFor(t, []addr.Address{0, 64})
	sameBankDiffRow := cyclesFor(t, []addr.Address{0, bankStride() * 8}) // same bank, different row
	if sameRowCycles >= sameBankDiffRow {
		t.Errorf("row hit (%d cycles) not faster than row conflict (%d cycles)",
			sameRowCycles, sameBankDiffRow)
	}
}

// bankStride returns the global address stride that advances one full row
// within one MC (local stride rowBytes, times 8 MCs for global).
func bankStride() addr.Address { return 2048 * 8 }

func cyclesFor(t *testing.T, addrs []addr.Address) uint64 {
	t.Helper()
	c := newTestController(t)
	for _, a := range addrs {
		c.Enqueue(Request{Addr: a})
	}
	run(t, c, len(addrs), 1000)
	return c.now
}

func TestBankParallelismBeatsBankConflict(t *testing.T) {
	// 4 requests across 4 banks should finish sooner than 4 row-conflicting
	// requests in one bank.
	var spread, conflict []addr.Address
	for i := 0; i < 4; i++ {
		spread = append(spread, addr.Address(i)*bankStride())                // different banks
		conflict = append(conflict, addr.Address(i)*bankStride()*8+64*8*100) // same bank, different rows
	}
	sc := cyclesFor(t, spread)
	cc := cyclesFor(t, conflict)
	if sc >= cc {
		t.Errorf("bank-parallel (%d) not faster than bank-conflict (%d)", sc, cc)
	}
}

func TestFRFCFSPrioritizesRowHits(t *testing.T) {
	c := newTestController(t)
	// Open row 0 of bank 0 with one request, then enqueue a conflicting
	// request (different row) followed by a row hit; FR-FCFS should finish
	// the row hit before the conflict despite arrival order.
	conflict := bankStride() * 8 * 100 // same bank, row 100
	hit := addr.Address(64 * 8)        // same row as the opener
	name := map[addr.Address]string{conflict: "conflict", hit: "hit"}
	c.Enqueue(Request{Addr: 0})
	for i := 0; i < 60; i++ {
		c.Tick()
	}
	c.Enqueue(Request{Addr: conflict})
	c.Enqueue(Request{Addr: hit})
	var order []string
	var hitDone uint64
	for i := 0; i < 500 && len(order) < 2; i++ {
		for _, r := range c.Tick() {
			order = append(order, name[r.Addr])
			if r.Addr == hit {
				hitDone = c.now
			}
		}
	}
	if len(order) != 2 || order[0] != "hit" {
		t.Errorf("completion order = %v, want hit before conflict", order)
	}
	// Issued on the next tick as a row hit: CAS and burst, no activate.
	if tm := DefaultTiming(); hitDone > 61+tm.CL+tm.Bust {
		t.Errorf("row hit completed at cycle %d, later than a CAS-only access (%d)", hitDone, 61+tm.CL+tm.Bust)
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestController(t)
	for i := 0; i < 32; i++ {
		if !c.CanAccept() {
			t.Fatalf("queue refused entry %d", i)
		}
		if !c.Enqueue(Request{Addr: addr.Address(i * 64 * 8)}) {
			t.Fatalf("queue with space rejected entry %d", i)
		}
	}
	if c.CanAccept() {
		t.Error("queue should be full at 32 entries")
	}
	if c.Enqueue(Request{}) {
		t.Error("full queue accepted a request instead of applying backpressure")
	}
	if c.QueueLen() != 32 {
		t.Errorf("refused enqueue changed queue length to %d", c.QueueLen())
	}
}

func TestEfficiencyHigherForSequential(t *testing.T) {
	seq := effFor(t, func(i int) addr.Address { return addr.Address(i * 64) })
	scatter := effFor(t, func(i int) addr.Address {
		// Same bank, new row every request: worst case.
		return addr.Address(i) * bankStride() * 8
	})
	if seq <= scatter {
		t.Errorf("sequential efficiency %v not higher than scattered %v", seq, scatter)
	}
	if seq < 0.3 {
		t.Errorf("sequential efficiency %v unexpectedly low", seq)
	}
}

func effFor(t *testing.T, gen func(i int) addr.Address) float64 {
	t.Helper()
	c := newTestController(t)
	fed, completed := 0, 0
	const total = 200
	for cycle := 0; cycle < 100000 && completed < total; cycle++ {
		if fed < total && c.CanAccept() {
			c.Enqueue(Request{Addr: gen(fed)})
			fed++
		}
		completed += len(c.Tick())
	}
	if completed < total {
		t.Fatalf("only %d/%d completed", completed, total)
	}
	return c.Stats().Efficiency()
}

func TestAllRequestsEventuallyComplete(t *testing.T) {
	// Property: any batch of requests completes, exactly once each. A batch
	// may repeat a request, so each distinct request must complete as many
	// times as it was enqueued.
	f := func(raws []uint32) bool {
		c := MustNewController(DefaultConfig(), addr.MustNewMapper(addr.Config{}))
		want := len(raws)
		if want > 64 {
			raws = raws[:64]
			want = 64
		}
		pending := map[Request]int{}
		fed := 0
		got := 0
		for cycle := 0; cycle < 200000 && got < want; cycle++ {
			if fed < want && c.CanAccept() {
				req := Request{Addr: addr.Address(raws[fed]) &^ 63, IsWrite: raws[fed]%3 == 0}
				c.Enqueue(req)
				pending[req]++
				fed++
			}
			for _, r := range c.Tick() {
				if pending[r]--; pending[r] < 0 {
					return false
				}
				got++
			}
		}
		if got != want {
			return false
		}
		for _, n := range pending {
			if n != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsCounts(t *testing.T) {
	c := newTestController(t)
	read, write := Request{Addr: 0, IsWrite: false}, Request{Addr: 64, IsWrite: true}
	c.Enqueue(read)
	c.Enqueue(write)
	done := run(t, c, 2, 1000)
	if len(done) != 2 || done[0] != read || done[1] != write {
		t.Errorf("completed %+v, want the read then the write", done)
	}
	if st := c.Stats(); st.BusBusyCycles != 2*DefaultTiming().Bust {
		t.Errorf("bus busy %d cycles, want two bursts of %d", st.BusBusyCycles, DefaultTiming().Bust)
	}
}

// tickUngated forces both due-cycle gates open, so Tick visits the banks
// and scans the in-flight list unconditionally, as it would without gates.
// (It leaves the forced controller's own NextWorkCycle meaningless.)
func tickUngated(c *Controller) []Request {
	c.issueDue, c.doneDue = 0, 0
	return c.Tick()
}

// nextWorkScan is NextWorkCycle computed from scratch over the bank FIFOs
// and the in-flight list: the scan the cached dues replaced.
func nextWorkScan(c *Controller) uint64 {
	next := NeverCycle
	for _, f := range c.inflight {
		next = min(next, f.doneAt)
	}
	minReady := NeverCycle
	for _, b := range c.banks {
		for i := b.head; i >= 0; i = c.slots[i].next {
			minReady = min(minReady, b.readyAt)
		}
	}
	if minReady != NeverCycle {
		next = min(next, max(c.now+1, minReady))
	}
	return next
}

func TestDueCycleGateMatchesUngated(t *testing.T) {
	// Random enqueue streams (bursts, gaps, row-local and scattered
	// addresses, reads and writes) through a gated and an ungated
	// controller: same completions on the same cycles in the same order,
	// same stats, and the gated horizon equal to the from-scratch scan at
	// every tick. Two equal requests are interchangeable, so completions
	// compare by value.
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed)
		gated, ungated := newTestController(t), newTestController(t)
		burstiness := 0.05 + 0.9*rng.Float64()
		next, completed := 0, 0
		for cycle := 0; cycle < 20000; cycle++ {
			for rng.Bool(burstiness) {
				a := addr.Address(rng.Intn(1<<22)) &^ 63
				if rng.Bool(0.5) {
					a = addr.Address(rng.Intn(64)) * 64 // stay in a few rows
				}
				req := Request{Addr: a, IsWrite: rng.Bool(0.3)}
				okG, okU := gated.Enqueue(req), ungated.Enqueue(req)
				if okG != okU {
					t.Fatalf("seed %d cycle %d: Enqueue accepted %v gated, %v ungated", seed, cycle, okG, okU)
				}
				if !okG {
					break
				}
				next++
			}
			if got, want := gated.NextWorkCycle(), nextWorkScan(gated); got != want {
				t.Fatalf("seed %d cycle %d: NextWorkCycle = %d, scan says %d", seed, cycle, got, want)
			}
			doneG, doneU := gated.Tick(), tickUngated(ungated)
			if len(doneG) != len(doneU) {
				t.Fatalf("seed %d cycle %d: %d completions gated, %d ungated", seed, cycle, len(doneG), len(doneU))
			}
			for i := range doneG {
				if doneG[i] != doneU[i] {
					t.Fatalf("seed %d cycle %d: completion %d is %+v gated, %+v ungated", seed, cycle, i, doneG[i], doneU[i])
				}
			}
			completed += len(doneG)
			if gated.Stats() != ungated.Stats() {
				t.Fatalf("seed %d cycle %d: stats diverge:\ngated   %+v\nungated %+v", seed, cycle, gated.Stats(), ungated.Stats())
			}
		}
		if completed == 0 || completed < next-DefaultConfig().QueueCapacity-8 {
			t.Errorf("seed %d: only %d of %d requests completed", seed, completed, next)
		}
	}
}

// flatQueue is the single-slice FR-FCFS queue the bank FIFOs replaced,
// kept as the reference model. It owns a Controller for the bank timing,
// data bus, in-flight list and stats (issue and complete), but queues and
// picks from its own slice by scanning every entry each tick.
type flatQueue struct {
	c            *Controller
	queue        []queued
	hits, misses int // issues by row-hit decision
}

func (f *flatQueue) enqueue(req Request) bool {
	if len(f.queue) >= f.c.cfg.QueueCapacity {
		return false
	}
	br := f.c.mapper.Decode(req.Addr)
	f.queue = append(f.queue, queued{req: req, bank: br.Bank % uint64(f.c.cfg.NumBanks), row: br.Row, entry: f.c.nextID})
	f.c.nextID++
	return true
}

func (f *flatQueue) tick() []Request {
	c := f.c
	c.now++
	if len(f.queue) > 0 || len(c.inflight) > 0 {
		c.stats.ActiveCycles++
	}
	pick, pickHit := -1, false
	for i := range f.queue {
		q := &f.queue[i]
		b := &c.banks[q.bank]
		if b.readyAt > c.now {
			continue
		}
		if hit := b.rowOpen && b.row == q.row; hit {
			if !pickHit || f.queue[pick].entry > q.entry {
				pick, pickHit = i, true
			}
		} else if !pickHit && (pick < 0 || f.queue[pick].entry > q.entry) {
			pick = i
		}
	}
	if pick >= 0 {
		q := f.queue[pick]
		f.queue = append(f.queue[:pick], f.queue[pick+1:]...)
		c.issue(&q, pickHit)
		if pickHit {
			f.hits++
		} else {
			f.misses++
		}
	}
	return c.complete()
}

// nextWork is the flat queue's NextWorkCycle, from scratch.
func (f *flatQueue) nextWork() uint64 {
	next := NeverCycle
	for _, fl := range f.c.inflight {
		next = min(next, fl.doneAt)
	}
	if len(f.queue) > 0 {
		minReady := NeverCycle
		for _, q := range f.queue {
			minReady = min(minReady, f.c.banks[q.bank].readyAt)
		}
		next = min(next, max(f.c.now+1, minReady))
	}
	return next
}

func TestBankFIFOsMatchFlatQueue(t *testing.T) {
	// Random enqueue streams through the bank FIFOs and the flat-queue
	// reference: same acceptance, same completions per tick in the same
	// order, same stats and the same NextWorkCycle at every tick. Small
	// bank counts and row-local addresses keep several requests per bank,
	// so a bank's row hit often sits behind its head.
	for seed := uint64(1); seed <= 24; seed++ {
		rng := xrand.New(seed)
		cfg := DefaultConfig()
		cfg.NumBanks = []int{1, 2, 8}[seed%3]
		cfg.QueueCapacity = []int{1, 5, 32}[seed/3%3]
		m := addr.MustNewMapper(addr.Config{})
		got := MustNewController(cfg, m)
		ref := &flatQueue{c: MustNewController(cfg, m)}
		burstiness := 0.05 + 0.9*rng.Float64()
		rows := 1 + rng.Intn(16)
		next, completed := 0, 0
		for cycle := 0; cycle < 20000; cycle++ {
			for rng.Bool(burstiness) {
				// Local rows are 2 KB per bank, 8 banks per row stripe, and
				// MCs interleave every 256 B: pick a few rows per bank.
				a := addr.Address(rng.Intn(rows))*bankStride()*8 + addr.Address(rng.Intn(8))*bankStride() +
					addr.Address(rng.Intn(4))*64
				if rng.Bool(0.2) {
					a = addr.Address(rng.Intn(1<<22)) &^ 63
				}
				req := Request{Addr: a, IsWrite: rng.Bool(0.3)}
				okG, okR := got.Enqueue(req), ref.enqueue(req)
				if okG != okR {
					t.Fatalf("seed %d cycle %d: Enqueue accepted %v, reference %v", seed, cycle, okG, okR)
				}
				if !okG {
					break
				}
				next++
			}
			if g, w := got.NextWorkCycle(), ref.nextWork(); g != w {
				t.Fatalf("seed %d cycle %d: NextWorkCycle = %d, reference %d", seed, cycle, g, w)
			}
			doneG, doneR := got.Tick(), ref.tick()
			if len(doneG) != len(doneR) {
				t.Fatalf("seed %d cycle %d: %d completions, reference %d", seed, cycle, len(doneG), len(doneR))
			}
			for i := range doneG {
				if doneG[i] != doneR[i] {
					t.Fatalf("seed %d cycle %d: completion %d is %+v, reference %+v", seed, cycle, i, doneG[i], doneR[i])
				}
			}
			completed += len(doneG)
			// lastAct moves on every row miss, so it pins each hit/miss decision.
			if got.Stats() != ref.c.Stats() || got.lastAct != ref.c.lastAct || got.QueueLen() != len(ref.queue) {
				t.Fatalf("seed %d cycle %d: diverged:\ngot %+v (queue %d)\nref %+v (queue %d)",
					seed, cycle, got.Stats(), got.QueueLen(), ref.c.Stats(), len(ref.queue))
			}
		}
		if completed < next-cfg.QueueCapacity-8 || ref.hits == 0 || ref.misses == 0 {
			t.Errorf("seed %d: %d of %d requests completed, %d row hits, %d misses", seed, completed, next, ref.hits, ref.misses)
		}
	}
}
