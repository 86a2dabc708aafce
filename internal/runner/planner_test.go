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
// collate by name, and the widths match the grid shape.
func TestPlannerGroupsReplicas(t *testing.T) {
	withMaxProcs(t, 8)
	cfgs := plannerSweep(t, 4, 6)
	pl := Planner{Jobs: 8}
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
	// 24 runs over 8 slots → target width 3; 6 seeds per group → two
	// 3-wide batches per group, everything batched.
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
	withMaxProcs(t, 1)
	cfgs := plannerSweep(t, 3, 8)
	pl := Planner{Jobs: 1}
	plan := pl.Plan(cfgs)
	for j, w := range plan.Width {
		if w != 1 {
			t.Fatalf("Width[%d] = %d, want 1 on a 1-core host", j, w)
		}
	}
}

// TestPlannerDeterministicAcrossPermutations: the planned submission
// sequence (the configs in plan order) is identical no matter how the
// caller permuted the sweep, so planned tables cannot depend on emission
// order.
func TestPlannerDeterministicAcrossPermutations(t *testing.T) {
	withMaxProcs(t, 8)
	base := plannerSweep(t, 3, 4)
	var pl Planner
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

// TestPlannerZeroAllocs: a warm Planner plans without allocating, so a
// caller can re-plan every batch for free. This is the same guarantee the
// CI alloc gate pins via BenchmarkSweepPlanner.
func TestPlannerZeroAllocs(t *testing.T) {
	withMaxProcs(t, 8)
	cfgs := plannerSweep(t, 8, 8)
	var pl Planner
	pl.Plan(cfgs) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() { pl.Plan(cfgs) }); allocs != 0 {
		t.Errorf("Plan allocated %.1f times per run, want 0", allocs)
	}
}

// TestDoAllPlannedMatchesDoAll: the DoAllPlanned forwarder is Do — outcomes
// in the caller's order with per-seed identity intact, replicas coalesced
// into lane batches (12 runs on 2 slots plan 6 wide on a 8-core budget),
// and a later single-config Do served from the same cache.
func TestDoAllPlannedMatchesDoAll(t *testing.T) {
	withMaxProcs(t, 8)
	rec := &laneBatchRecorder{}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 2,
		RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	cfgs := plannerSweep(t, 2, 6)
	outs := p.DoAllPlanned(context.Background(), cfgs)
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
	if len(rec.batches) != 2 || batched != 12 || soloRuns.Load() != 0 {
		t.Errorf("batches %v, solo %d; the plan should coalesce all 12 replicas into two",
			rec.batches, soloRuns.Load())
	}
	if p.Executed() != 12 {
		t.Errorf("Executed() = %d, want 12", p.Executed())
	}
	if out := doOne(p, cfgs[5]); !out.Cached {
		t.Errorf("single-config repeat missed the cache: %+v", out)
	}
}

// BenchmarkSweepPlanner measures a warm re-plan of an explorer-shaped sweep
// (64 groups × 8 seeds, shuffled). It must stay allocation-free: the CI
// bench gate fails on any nonzero allocs/op.
func BenchmarkSweepPlanner(b *testing.B) {
	cfgs := plannerSweep(b, 64, 8)
	pl := Planner{Jobs: 8}
	pl.Plan(cfgs) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Plan(cfgs)
	}
}
