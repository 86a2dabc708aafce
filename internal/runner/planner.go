package runner

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/core"
)

// Plan is a submission schedule produced by Planner.Plan: the order in which
// Pool.Do submits a batch and the lane width chosen for each position. Order
// and Width alias the Planner's scratch storage and are valid only until the
// next Plan call.
type Plan struct {
	// Order holds indices into the planned cfgs slice in submission
	// order: same lane group (identity minus seed) adjacent, groups
	// sorted by (Name, Workload.Abbr, InstrsPerWarp), seeds ascending
	// within a group — the order that lets Do cut lane chunks from
	// contiguous runs and keeps cache/journal writes for one configuration
	// together.
	Order []int
	// Width holds, for each position j in Order, the lane width chosen
	// for the group containing Order[j].
	Width []int
}

// Planner turns an unordered batch into a lane-aware submission plan:
// same-config/different-seed replicas are grouped so Pool.Do runs them as
// single RunLanes batches, groups are ordered for cache/journal locality,
// and lane width is derived from the jobs×lanes ≤ GOMAXPROCS budget. It is
// the only source of a lane width: no caller can force one.
//
// The zero value is ready to use. Plan reuses internal scratch across calls
// and performs no allocations once warm; a Planner must not be used from
// multiple goroutines concurrently.
type Planner struct {
	// Jobs is the worker-slot count the batch will run under; 0 means
	// GOMAXPROCS (the pool's own default).
	Jobs int

	cfgs  []core.Config // batch being sorted; nil outside Plan
	order []int         // scratch backing Plan.Order
	width []int         // scratch backing Plan.Width
}

// Plan schedules cfgs. It never mutates cfgs; the returned Plan's slices
// alias the Planner's scratch and are valid until the next call.
//
// Lane width per group is the even spread of the whole batch across the
// worker slots — ceil(n/jobs) replicas per slot — clamped to the group's
// size and to GOMAXPROCS, and forced to 1 on a 1-core host: wide lanes only
// pay off when they soak otherwise-idle slots, and a group can never lend
// lanes to a different configuration.
func (pl *Planner) Plan(cfgs []core.Config) Plan {
	n := len(cfgs)
	maxprocs := runtime.GOMAXPROCS(0)
	jobs := pl.Jobs
	if jobs <= 0 {
		jobs = maxprocs
	}

	if cap(pl.order) < n {
		pl.order = make([]int, n)
		pl.width = make([]int, n)
	}
	pl.order = pl.order[:n]
	pl.width = pl.width[:n]
	for i := range pl.order {
		pl.order[i] = i
	}
	pl.cfgs = cfgs
	sort.Sort(pl)
	pl.cfgs = nil

	target := (n + jobs - 1) / jobs
	for start := 0; start < n; {
		end := start + 1
		for end < n && samePlanGroup(&cfgs[pl.order[start]], &cfgs[pl.order[end]]) {
			end++
		}
		w := min(target, end-start, maxprocs)
		if maxprocs <= 1 {
			w = 1
		}
		for j := start; j < end; j++ {
			pl.width[j] = w
		}
		start = end
	}
	return Plan{Order: pl.order, Width: pl.width}
}

// samePlanGroup reports whether two configs share a lane group: the cache
// identity (runner.Key) minus the seed, compared field-by-field so planning
// never builds key strings. Configs in one group are identical simulations
// by the Key contract — anything that changes results must also change
// Name — so RunLanes may legally replicate one representative across the
// group's seeds.
func samePlanGroup(a, b *core.Config) bool {
	return a.Name == b.Name &&
		a.Workload.Abbr == b.Workload.Abbr &&
		a.Workload.InstrsPerWarp == b.Workload.InstrsPerWarp
}

// sort.Interface over the order permutation: groups collate by identity,
// seeds ascend within a group, and the original index breaks remaining ties
// so the order is total and the (unstable) sort deterministic. Implemented
// on the Planner itself — not a closure — so sorting allocates nothing.
func (pl *Planner) Len() int      { return len(pl.order) }
func (pl *Planner) Swap(i, j int) { pl.order[i], pl.order[j] = pl.order[j], pl.order[i] }
func (pl *Planner) Less(i, j int) bool {
	a, b := &pl.cfgs[pl.order[i]], &pl.cfgs[pl.order[j]]
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Workload.Abbr != b.Workload.Abbr {
		return a.Workload.Abbr < b.Workload.Abbr
	}
	if a.Workload.InstrsPerWarp != b.Workload.InstrsPerWarp {
		return a.Workload.InstrsPerWarp < b.Workload.InstrsPerWarp
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	return pl.order[i] < pl.order[j]
}

// DoAllPlanned is Do under its old name, kept only because the repository
// benchmark (bench/sweep.go) calls it.
func (p *Pool) DoAllPlanned(ctx context.Context, cfgs []core.Config) []Outcome {
	return p.Do(ctx, cfgs...)
}
