package runner

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// plannerSweep builds groups×seeds configs (groups distinct names, seeds
// replicas each) shuffled deterministically, so tests and benchmarks plan a
// sweep whose replicas arrive interleaved — the shape the explorer emits.
func plannerSweep(t testing.TB, groups, seeds int) []core.Config {
	t.Helper()
	prof, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]core.Config, 0, groups*seeds)
	for g := 0; g < groups; g++ {
		base := core.Baseline(prof)
		base.Name = "plan-" + string(rune('A'+g%26)) + string(rune('a'+g/26))
		for s := 1; s <= seeds; s++ {
			cfg := base
			cfg.Seed = uint64(s)
			cfgs = append(cfgs, cfg)
		}
	}
	r := xrand.New(42)
	for i := len(cfgs) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		cfgs[i], cfgs[j] = cfgs[j], cfgs[i]
	}
	return cfgs
}

// TestPlannerGroupsReplicas pins the planning contract: the order is a
// permutation, every lane group is contiguous with seeds ascending, groups
// collate by name, and the accounting matches the grid shape.
func TestPlannerGroupsReplicas(t *testing.T) {
	cfgs := plannerSweep(t, 4, 6)
	var pl Planner
	pl.MaxProcs = 8
	pl.Jobs = 8
	plan := pl.Plan(cfgs)

	if len(plan.Order) != len(cfgs) || len(plan.Width) != len(cfgs) {
		t.Fatalf("plan sized %d/%d, want %d", len(plan.Order), len(plan.Width), len(cfgs))
	}
	seen := make([]bool, len(cfgs))
	for _, i := range plan.Order {
		if i < 0 || i >= len(cfgs) || seen[i] {
			t.Fatalf("Order %v is not a permutation of the input", plan.Order)
		}
		seen[i] = true
	}
	for j := 1; j < len(plan.Order); j++ {
		a, b := cfgs[plan.Order[j-1]], cfgs[plan.Order[j]]
		if a.Name > b.Name {
			t.Fatalf("groups out of order at %d: %q after %q", j, b.Name, a.Name)
		}
		if a.Name == b.Name && a.Seed >= b.Seed {
			t.Fatalf("seeds not ascending within group %q at %d", a.Name, j)
		}
	}
	if plan.Groups != 4 {
		t.Errorf("Groups = %d, want 4", plan.Groups)
	}
	// 24 runs over 8 slots → target width 3; 6 seeds per group → two
	// 3-wide batches per group, everything batched.
	if plan.Batched != 24 || plan.Batches != 8 {
		t.Errorf("Batched/Batches = %d/%d, want 24/8", plan.Batched, plan.Batches)
	}
	for j, w := range plan.Width {
		if w != 3 {
			t.Errorf("Width[%d] = %d, want 3", j, w)
		}
	}
}

// TestPlannerOneCoreDegrade pins the satellite contract: on a 1-core host
// the plan degrades to lanes=1 — no batch ever holds more than one lane, so
// a degraded CI box never oversubscribes itself and bench capture rows stay
// honest.
func TestPlannerOneCoreDegrade(t *testing.T) {
	cfgs := plannerSweep(t, 3, 8)
	var pl Planner
	pl.MaxProcs = 1
	pl.Jobs = 1
	plan := pl.Plan(cfgs)
	for j, w := range plan.Width {
		if w != 1 {
			t.Fatalf("Width[%d] = %d, want 1 on a 1-core host", j, w)
		}
	}
	if plan.Batches != 0 || plan.Batched != 0 {
		t.Errorf("1-core plan still batches lanes: %+v", plan)
	}
}

// TestPlannerDeterministicAcrossPermutations: the planned submission
// sequence (the configs in plan order) is identical no matter how the
// caller permuted the sweep, so planned tables cannot depend on emission
// order.
func TestPlannerDeterministicAcrossPermutations(t *testing.T) {
	base := plannerSweep(t, 3, 4)
	var pl Planner
	pl.MaxProcs = 8
	ref := pl.Plan(base)
	refKeys := make([]string, len(ref.Order))
	for j, i := range ref.Order {
		refKeys[j] = Key(base[i])
	}

	shuffled := append([]core.Config(nil), base...)
	r := xrand.New(7)
	for round := 0; round < 5; round++ {
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(r.Uint64() % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		plan := pl.Plan(shuffled)
		for j, i := range plan.Order {
			if got := Key(shuffled[i]); got != refKeys[j] {
				t.Fatalf("round %d: planned position %d = %q, want %q", round, j, got, refKeys[j])
			}
		}
	}
}

// TestPlannerZeroAllocs: a warm Planner plans without allocating, so the
// explorer can re-plan every rung for free. This is the same guarantee the
// CI alloc gate pins via BenchmarkSweepPlanner.
func TestPlannerZeroAllocs(t *testing.T) {
	cfgs := plannerSweep(t, 8, 8)
	var pl Planner
	pl.MaxProcs = 8
	pl.Plan(cfgs) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() { pl.Plan(cfgs) }); allocs != 0 {
		t.Errorf("Plan allocated %.1f times per run, want 0", allocs)
	}
}

// TestDoAllPlannedMatchesDoAll: the planned path returns outcomes in the
// caller's order with per-seed identity intact, coalesces replicas into
// lane batches, and a later unplanned request is served from the same
// cache.
func TestDoAllPlannedMatchesDoAll(t *testing.T) {
	rec := &laneBatchRecorder{}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 2,
		RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	cfgs := plannerSweep(t, 2, 6) // 12 runs on 2 jobs → width 6 batches
	pl := Planner{MaxProcs: 8, Jobs: 2}
	outs := p.DoAllWithPlan(context.Background(), cfgs, pl.Plan(cfgs))
	for i, o := range outs {
		if want := Key(cfgs[i]); o.Key != want {
			t.Errorf("outs[%d].Key = %q, want caller-order key %q", i, o.Key, want)
		}
		if !o.OK() || o.Result.IPC != float64(cfgs[i].Seed) {
			t.Errorf("outs[%d] = %+v, want ok carrying seed %d", i, o.Result, cfgs[i].Seed)
		}
	}
	batched := 0
	for _, b := range rec.batches {
		batched += len(b)
	}
	if batched != 12 || soloRuns.Load() != 0 {
		t.Errorf("batched %d seeds, solo %d; planner should coalesce all 12 replicas",
			batched, soloRuns.Load())
	}
	if p.Executed() != 12 {
		t.Errorf("Executed() = %d, want 12", p.Executed())
	}
	if out := p.Do(cfgs[5]); !out.Cached {
		t.Errorf("unplanned repeat missed the cache: %+v", out)
	}
}

// TestDoAllPlannedExplicitRequestsWin: a config's own Lanes survives
// planning untouched — the plan only fills silence.
func TestDoAllPlannedExplicitRequestsWin(t *testing.T) {
	rec := &laneBatchRecorder{}
	p := newPool(t, Options{Jobs: 1, RunLanes: rec.run, Run: okRun})
	cfgs := plannerSweep(t, 1, 4)
	for i := range cfgs {
		cfgs[i].Lanes = 1 // caller explicitly demands solo runs
	}
	pl := Planner{MaxProcs: 8, Jobs: 1}
	outs := p.DoAllWithPlan(context.Background(), cfgs, pl.Plan(cfgs))
	if len(rec.batches) != 0 {
		t.Errorf("explicit Lanes=1 still produced lane batches %v", rec.batches)
	}
	for i, o := range outs {
		if !o.OK() {
			t.Errorf("outs[%d].Status = %q, want ok", i, o.Result.Status)
		}
	}
}

// BenchmarkSweepPlanner measures a warm re-plan of an explorer-shaped sweep
// (64 groups × 8 seeds, shuffled). It must stay allocation-free: the CI
// bench gate fails on any nonzero allocs/op.
func BenchmarkSweepPlanner(b *testing.B) {
	cfgs := plannerSweep(b, 64, 8)
	var pl Planner
	pl.MaxProcs = 16
	pl.Jobs = 8
	pl.Plan(cfgs) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Plan(cfgs)
	}
}

// BenchmarkSweepSubmission compares submitting a replica-heavy sweep
// through the naive per-config path against the planner (batched) path,
// with a stub kernel so the measured cost is the runner's own
// orchestration. Not alloc-gated: pool bookkeeping allocates by design.
func BenchmarkSweepSubmission(b *testing.B) {
	laneRun := func(_ context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
		results := make([]core.Result, len(seeds))
		for i := range seeds {
			results[i] = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "ok"}
		}
		return results, make([]error, len(seeds))
	}
	soloRun := func(_ context.Context, cfg core.Config) (core.Result, error) {
		return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "ok"}, nil
	}
	cfgs := plannerSweep(b, 16, 8)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := New(context.Background(), Options{Jobs: 4, RunLanes: laneRun, Run: soloRun})
			if err != nil {
				b.Fatal(err)
			}
			p.DoAll(cfgs)
			p.Close()
		}
	})
	b.Run("planned", func(b *testing.B) {
		pl := Planner{MaxProcs: 16, Jobs: 4}
		for i := 0; i < b.N; i++ {
			p, err := New(context.Background(), Options{Jobs: 4, RunLanes: laneRun, Run: soloRun})
			if err != nil {
				b.Fatal(err)
			}
			p.DoAllWithPlan(context.Background(), cfgs, pl.Plan(cfgs))
			p.Close()
		}
	})
}
