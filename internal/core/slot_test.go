package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/noc"
	"repro/internal/workload"
)

// countdownCtx cancels itself on its polls-th Err call. The loop polls its
// context every ctxCheckPeriod interconnect cycles, so a countdown cancels
// a run mid-flight on the same cycle every time it is driven the same way.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// slotStep is one run of the slot equivalence sequence, which ends in
// status. cancelAfter > 0 runs it under a countdownCtx of that many polls.
type slotStep struct {
	name        string
	cfg         Config
	status      string
	cancelAfter int
}

// slotSequence is the run order TestSlotMatchesFresh drives through one
// slot: every network kind, topology backend and verdict a rebuild must
// reset from, a run abandoned mid-flight, and a configuration smaller in
// every dimension than the one before it, ending where it began.
func slotSequence(t *testing.T) []slotStep {
	t.Helper()
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.01
	deadlock := Baseline(bin).ScaleWork(0.01).WithFaults(0.05, 3).WithWatchdog(500)
	deadlock.Noc.Fault.RetxTimeout = 1000
	small := Baseline(bin).ScaleWork(scale)
	small.Name += "-small"
	small.Noc.Width, small.Noc.Height = 4, 4
	small.Noc.MCs = noc.TopBottomPlacement(4, 4, 4)
	small.Noc.BufDepth = 4
	small.Noc.SrcQueueCap = 4
	small.Core.L1.SizeBytes = 8 * 1024
	small.Core.MSHRs = 32
	small.Mem.L2.SizeBytes = 64 * 1024
	small.Mem.L2MSHRs = 32
	small.Mem.DRAM.QueueCapacity = 16
	small.Workload.Warps = 8
	return []slotStep{
		{name: "tb-dor", cfg: Baseline(mum).ScaleWork(scale), status: StatusOK},
		{name: "perfect", cfg: Perfect(bin).ScaleWork(scale), status: StatusOK},
		{name: "thr-eff", cfg: ThroughputEffective(mum).ScaleWork(scale), status: StatusOK},
		{name: "ring", cfg: Ring(mum).ScaleWork(scale), status: StatusOK},
		{name: "basejump", cfg: BaseJump(mum).ScaleWork(scale), status: StatusOK},
		{name: "deadlock", cfg: deadlock, status: StatusDeadlock},
		{name: "canceled", cfg: Baseline(mum).ScaleWork(scale), status: StatusCanceled, cancelAfter: 3},
		{name: "small", cfg: small, status: StatusOK},
		{name: "tb-dor-again", cfg: Baseline(mum).ScaleWork(scale), status: StatusOK},
	}
}

func (st slotStep) ctx() context.Context {
	if st.cancelAfter > 0 {
		return &countdownCtx{Context: context.Background(), polls: st.cancelAfter}
	}
	return context.Background()
}

// laneDigest renders everything observable about one retired lane: its
// Result and network counters (digestRun) and its verdict with the
// diagnostic dump.
func laneDigest(s *System) string {
	return digestRun(s.res, s.NetStats()) + "\n" + verdictOf(s.runErr)
}

// freshDigests runs the step's seeds on fresh Systems: each seed alone, as
// core.Run does, except that a canceled step runs the whole batch, since
// its lanes share the countdown and so its cancellation cycle.
func freshDigests(t *testing.T, st slotStep, seeds []uint64) []string {
	t.Helper()
	want := make([]string, len(seeds))
	if st.cancelAfter > 0 {
		lanes, errs := runLanes(st.ctx(), st.cfg, seeds)
		for i, s := range lanes {
			if s == nil {
				t.Fatalf("%s: fresh lane %d: %v", st.name, i, errs[i])
			}
			want[i] = laneDigest(s)
		}
		return want
	}
	for i, seed := range seeds {
		c := st.cfg
		c.Seed = seed
		s, err := NewSystem(c)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		s.Run(st.ctx())
		want[i] = laneDigest(s)
	}
	return want
}

// TestSlotMatchesFresh is the recycled-construction invariant: a System
// built into the memory of a finished one equals a fresh one, so every run
// of a slot — whatever ran on it before, however that run ended — returns
// what a fresh core.Run returns, bit for bit, and leaves the same network
// counters. One slot runs slotSequence solo and as lane batches of width 1,
// 2 and 4. The test holds the slot's Systems from one step to the next, so
// every step builds into them whenever a collection runs.
func TestSlotMatchesFresh(t *testing.T) {
	seq := slotSequence(t)
	for _, width := range []int{0, 1, 2, 4} { // 0: solo, through Slot.Run
		n := max(width, 1)
		var sl Slot
		held := make([]*System, n)
		for i := range held {
			held[i] = &System{}
			sl.spares = append(sl.spares, weak.Make(held[i]))
		}
		for _, st := range seq {
			seeds := make([]uint64, n)
			for i := range seeds {
				seeds[i] = st.cfg.Seed + uint64(i)
			}
			want := freshDigests(t, st, seeds)
			if width == 0 {
				res, err := sl.Run(st.ctx(), st.cfg)
				if held[0].res != res || held[0].runErr != err {
					t.Fatalf("%s: Slot.Run returned what its System did not record", st.name)
				}
			} else if lanes, _ := sl.runLanes(st.ctx(), st.cfg, seeds); !slices.Equal(lanes, held) {
				t.Fatalf("width %d, %s: the run did not build into the slot's Systems", width, st.name)
			}
			for i, s := range held {
				if sl.spares[i].Value() != s {
					t.Fatalf("width %d, %s: the slot lost lane %d's System", width, st.name, i)
				}
			}
			if got := held[0].res.Status; got != st.status {
				t.Fatalf("width %d, %s: status %q, want %q", width, st.name, got, st.status)
			}
			for i, s := range held {
				if got := laneDigest(s); got != want[i] {
					t.Errorf("width %d, %s, lane %d: rebuilt run differs from a fresh one:\n got  %s\n want %s",
						width, st.name, i, got, want[i])
				}
			}
		}
	}
}

// TestSlotReusesUntilCollected pins the retention rule: between runs a slot
// holds its Systems only through weak pointers. While something else holds
// them, the next run builds into the same Systems; once nothing does, a
// collection frees them, no weak pointer resolves, and the next run builds
// fresh and equals core.Run.
func TestSlotReusesUntilCollected(t *testing.T) {
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline(bin).ScaleWork(0.01)
	ctx := context.Background()
	var sl Slot
	func() {
		seeds := []uint64{cfg.Seed, cfg.Seed + 1}
		first, errs := sl.runLanes(ctx, cfg, seeds)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if second, _ := sl.runLanes(ctx, cfg, seeds); !slices.Equal(second, first) {
			t.Errorf("the second run built new Systems while the first run's were held")
		}
	}()
	runtime.GC()
	for i, w := range sl.spares {
		if w.Value() != nil {
			t.Errorf("lane %d's System outlived a collection with no other reference", i)
		}
	}
	res, err := sl.Run(ctx, cfg)
	if want, werr := Run(ctx, cfg); res != want || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Errorf("run after the collection: %+v (%v), fresh %+v (%v)", res, err, want, werr)
	}
}

// TestSlotRunResultsMatchRun drives the sequence through the exported
// entry points: Slot.Run and Slot.RunLanes must return what core.Run
// returns for each seed on a fresh System (a canceled step: what a fresh
// batch returns), errors included.
func TestSlotRunResultsMatchRun(t *testing.T) {
	var sl Slot
	for _, st := range slotSequence(t) {
		seeds := []uint64{st.cfg.Seed, st.cfg.Seed + 1}
		var wantRes []Result
		var wantErr []error
		if st.cancelAfter > 0 {
			wantRes, wantErr = RunLanes(st.ctx(), st.cfg, seeds)
		} else {
			for _, seed := range seeds {
				c := st.cfg
				c.Seed = seed
				r, err := Run(st.ctx(), c)
				wantRes, wantErr = append(wantRes, r), append(wantErr, err)
			}
		}
		res, errs := sl.RunLanes(st.ctx(), st.cfg, seeds)
		for i := range seeds {
			if res[i] != wantRes[i] || verdictOf(errs[i]) != verdictOf(wantErr[i]) {
				t.Errorf("%s lane %d: %+v (%v), fresh %+v (%v)", st.name, i, res[i], errs[i], wantRes[i], wantErr[i])
			}
		}
		if st.cancelAfter > 0 {
			continue // a solo cancellation lands on another cycle than the batch's
		}
		if r, err := sl.Run(st.ctx(), st.cfg); r != wantRes[0] || verdictOf(err) != verdictOf(wantErr[0]) {
			t.Errorf("%s solo: %+v (%v), fresh %+v (%v)", st.name, r, err, wantRes[0], wantErr[0])
		}
	}
}

// TestSlotDropsSparesOnPanic pins that a run that panics leaves its slot
// empty, so no half-stepped System is built into again.
func TestSlotDropsSparesOnPanic(t *testing.T) {
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline(bin).ScaleWork(0.01)
	ctx := context.Background()
	seeds := []uint64{cfg.Seed}
	var sl Slot
	lanes, errs := sl.runLanes(ctx, cfg, seeds)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	held := lanes[0]
	if len(sl.spares) != 1 || sl.spares[0].Value() != held {
		t.Fatalf("slot holds %d systems after a solo run, want its System", len(sl.spares))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the run did not panic")
			}
		}()
		sl.Run(panicCtx{ctx}, cfg)
	}()
	if len(sl.spares) != 0 {
		t.Errorf("slot holds %d systems after a panicking run, want none", len(sl.spares))
	}
	lanes, errs = sl.runLanes(ctx, cfg, seeds)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if lanes[0] == held {
		t.Error("the run after the panic built into the panicked System")
	}
	if want, werr := Run(ctx, cfg); lanes[0].res != want || fmt.Sprint(lanes[0].runErr) != fmt.Sprint(werr) {
		t.Errorf("run after the panic: %+v (%v), fresh %+v (%v)", lanes[0].res, lanes[0].runErr, want, werr)
	}
}

// panicCtx panics at the loop's first context poll, after the build.
type panicCtx struct{ context.Context }

func (panicCtx) Err() error { panic("context poll") }
