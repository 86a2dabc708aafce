package runner

import (
	"context"
	"runtime"
	"sort"

	"repro/internal/core"
)

// Plan is a submission schedule produced by Planner.Plan: the order in which
// a sweep's configs should be handed to DoAllContext and the lane width
// chosen for each position. Order and Width alias the Planner's scratch
// storage and are valid only until the next Plan call.
type Plan struct {
	// Order holds indices into the planned cfgs slice in submission
	// order: same lane group (identity minus seed) adjacent, groups
	// sorted by (Name, Workload.Abbr, InstrsPerWarp), seeds ascending
	// within a group — the order that maximizes DoAllContext's lane
	// coalescing and keeps cache/journal writes for one configuration
	// together.
	Order []int
	// Width holds, for each position j in Order, the lane width chosen
	// for the group containing Order[j]. DoAllPlanned applies it only to
	// configs whose own Lanes request (and the pool's) is zero.
	Width []int
	// Groups is the number of distinct lane groups in the sweep.
	Groups int
	// Batches is the number of >=2-wide lane chunks the plan will
	// submit; Batched is the number of configs riding in them. The
	// remaining len(Order)-Batched configs run solo.
	Batches int
	Batched int
}

// Planner turns an unordered sweep into a lane-aware submission plan:
// same-config/different-seed replicas are grouped so DoAllContext coalesces
// them into single RunLanes batches, groups are ordered for cache/journal
// locality, and lane width is auto-tuned from the jobs×lanes ≤ maxprocs
// budget instead of a fixed flag.
//
// The zero value is ready to use. Plan reuses internal scratch across calls
// and performs no allocations once warm, so a long-running explorer can
// re-plan every rung for free; a Planner must not be used from multiple
// goroutines concurrently.
type Planner struct {
	// MaxProcs is the core budget; 0 means runtime.GOMAXPROCS(0).
	MaxProcs int
	// Jobs is the worker-slot count the sweep will run under; 0 means
	// the core budget (the pool's own default).
	Jobs int

	cfgs  []core.Config // sweep being sorted; nil outside Plan
	order []int         // scratch backing Plan.Order
	width []int         // scratch backing Plan.Width
}

// Plan schedules cfgs. It never mutates cfgs; the returned Plan's slices
// alias the Planner's scratch and are valid until the next call.
//
// Lane width per group is the even spread of the whole sweep across the
// worker slots — ceil(n/jobs) replicas per slot — clamped to the group's
// size and the core budget, and forced to 1 on a 1-core host: wide lanes
// only pay off when they soak otherwise-idle slots, and a group can never
// lend lanes to a different configuration.
func (pl *Planner) Plan(cfgs []core.Config) Plan {
	n := len(cfgs)
	maxprocs := pl.MaxProcs
	if maxprocs <= 0 {
		maxprocs = runtime.GOMAXPROCS(0)
	}
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

	plan := Plan{Order: pl.order, Width: pl.width}
	target := (n + jobs - 1) / jobs
	if target < 1 {
		target = 1
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && samePlanGroup(&cfgs[pl.order[start]], &cfgs[pl.order[end]]) {
			end++
		}
		g := end - start
		w := target
		if w > g {
			w = g
		}
		if w > maxprocs {
			w = maxprocs
		}
		if maxprocs <= 1 {
			w = 1
		}
		for j := start; j < end; j++ {
			pl.width[j] = w
		}
		plan.Groups++
		if w >= 2 {
			full := g / w
			plan.Batches += full
			plan.Batched += full * w
			if rem := g % w; rem >= 2 {
				plan.Batches++
				plan.Batched += rem
			}
		}
		start = end
	}
	return plan
}

// samePlanGroup reports whether two configs share a lane group: the cache
// identity (runner.Key) minus the seed, compared field-by-field so planning
// never builds key strings.
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

// DoAllPlanned is DoAll routed through the sweep planner: cfgs are
// submitted to DoAllContext in plan order with the planned lane width
// applied wherever the caller was silent, and the outcomes are scattered
// back so outs[i] still corresponds to cfgs[i]. Explicit requests always
// win: a config's own Lanes, then the pool's, then the plan. Planning is
// order-insensitive modulo input permutation, so tables rendered from the
// outcomes are byte-identical to the unplanned path for any submission
// order.
func (p *Pool) DoAllPlanned(ctx context.Context, cfgs []core.Config) []Outcome {
	pl := Planner{Jobs: p.opts.Jobs}
	return p.DoAllWithPlan(ctx, cfgs, pl.Plan(cfgs))
}

// DoAllWithPlan submits cfgs according to a plan the caller produced —
// typically from a long-lived Planner reused across explorer rungs (Plan is
// allocation-free once warm). The plan must have been produced from exactly
// this cfgs slice.
func (p *Pool) DoAllWithPlan(ctx context.Context, cfgs []core.Config, plan Plan) []Outcome {
	if len(cfgs) == 0 {
		return nil
	}
	ordered := make([]core.Config, len(cfgs))
	for j, i := range plan.Order {
		c := cfgs[i]
		if c.Lanes == 0 && p.opts.Lanes == 0 {
			c.Lanes = plan.Width[j]
		}
		ordered[j] = c
	}
	outs := p.DoAllContext(ctx, ordered)
	scattered := make([]Outcome, len(cfgs))
	for j, i := range plan.Order {
		scattered[i] = outs[j]
	}
	return scattered
}
