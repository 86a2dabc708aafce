package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Rung is one stage of the successive-halving schedule: every surviving
// candidate runs at Budget (a fraction of the full kernel length), then
// candidates dominated on the running IPC/area estimate — with Margin of
// slack protecting near-frontier points from short-budget estimation noise
// — are killed before the next, longer rung.
type Rung struct {
	// Budget multiplies the kernel length for this rung; the final rung
	// should run the full kernel (1.0).
	Budget float64 `json:"budget"`
	// Margin is the dominance confidence margin: a candidate is killed
	// only by a competitor whose IPC estimate exceeds the candidate's by
	// more than Margin (relative) at no larger area. 0 is exact Pareto
	// dominance.
	Margin float64 `json:"margin"`
}

// DefaultRungs is the three-stage schedule the explorer uses when the
// caller does not supply one: a 5% warm-up that kills candidates dominated
// by more than a 15% IPC margin, a 25% middle rung at a 5% margin, and the
// full-length final rung at exact dominance. The margins were calibrated
// against exhaustive full-grid runs: they are the tightest schedule that
// still reproduces the exhaustive Pareto frontier exactly (tighter margins
// start mis-killing near-tie frontier points whose sub-5% IPC gaps only
// resolve at full length — adding a half-budget rung does not help, the
// near-ties flip between budgets). Budgets must ascend so a promoted
// candidate never re-runs a shorter kernel than it already has.
func DefaultRungs() []Rung {
	return []Rung{
		{Budget: 0.05, Margin: 0.15},
		{Budget: 0.25, Margin: 0.05},
		{Budget: 1.0, Margin: 0},
	}
}

// Options configures an exploration.
type Options struct {
	// Grid spans the design space; the zero value means DefaultGrid.
	Grid Grid
	// Benchmarks are the workloads every candidate is scored on (the
	// harmonic mean across them is the IPC estimate). Must be non-empty.
	Benchmarks []workload.Profile
	// Seeds lists the traffic seeds averaged per (candidate, benchmark);
	// empty means {1}. The pool's planner runs the replicas as lane batches.
	Seeds []uint64
	// Rungs is the successive-halving schedule; empty means DefaultRungs.
	Rungs []Rung
	// Scale multiplies kernel length before rung budgets apply (the
	// suite's -scale knob); 0 means 1.0.
	Scale float64
	// Progress, when non-nil, receives one line per rung.
	Progress io.Writer
}

// Estimate is one candidate's running score at a rung: the harmonic mean
// over benchmarks of the mean-over-seeds IPC, the analytic areas, and the
// simulation cost the estimate consumed.
type Estimate struct {
	Candidate string  `json:"candidate"`
	IPC       float64 `json:"ipc"`
	NoCArea   float64 `json:"noc_mm2"`
	ChipArea  float64 `json:"chip_mm2"`
	TE        float64 `json:"ipc_per_mm2"`
	Runs      int     `json:"runs"` // OK runs contributing to IPC
	DNF       int     `json:"dnf"`  // degraded runs at this rung
	Cycles    uint64  `json:"icnt_cycles"`
}

// Kill records one dominance kill: who died, who dominated, at what score.
type Kill struct {
	Candidate string  `json:"candidate"`
	By        string  `json:"by"`
	IPC       float64 `json:"ipc"`
	ChipArea  float64 `json:"chip_mm2"`
}

// RungLog is the per-rung kill/promote accounting.
type RungLog struct {
	Index    int      `json:"rung"`
	Budget   float64  `json:"budget"`
	Margin   float64  `json:"margin"`
	Entered  int      `json:"entered"`
	Killed   []Kill   `json:"killed"`
	DNF      []string `json:"dnf"` // candidates dropped: every run degraded
	Promoted int      `json:"promoted"`
	Cycles   uint64   `json:"icnt_cycles"`
}

// Frontier is the machine-readable result of one exploration.
type Frontier struct {
	Grid       int       `json:"grid"` // valid candidates enumerated
	Benchmarks []string  `json:"benchmarks"`
	Seeds      []uint64  `json:"seeds"`
	Rungs      []RungLog `json:"rungs"`
	// Points is the Pareto frontier over the final-rung estimates,
	// sorted by chip area ascending.
	Points []Estimate `json:"frontier"`
	// Survivors is every candidate that completed the final rung
	// (frontier and dominated alike), sorted by candidate name.
	Survivors []Estimate `json:"survivors"`
	// PaperPointOnFrontier reports whether the paper's combined design
	// (PaperPoint) was recovered on Points — the validation check.
	PaperPoint           string `json:"paper_point"`
	PaperPointOnFrontier bool   `json:"paper_point_on_frontier"`
	// KilledEarly counts candidates terminated before the final rung
	// (dominance kills plus all-DNF drops).
	KilledEarly int `json:"killed_early"`
	// SimulatedCycles is the interconnect-cycle cost actually paid;
	// ExhaustiveCycles extrapolates what running every enumerated
	// candidate at full budget would have cost.
	SimulatedCycles  uint64 `json:"simulated_cycles"`
	ExhaustiveCycles uint64 `json:"exhaustive_cycles_estimate"`
}

// CycleSavings returns ExhaustiveCycles/SimulatedCycles (0 when unknown).
func (f *Frontier) CycleSavings() float64 {
	if f.SimulatedCycles == 0 || f.ExhaustiveCycles == 0 {
		return 0
	}
	return float64(f.ExhaustiveCycles) / float64(f.SimulatedCycles)
}

// JSON renders the frontier for machines.
func (f *Frontier) JSON() ([]byte, error) { return json.MarshalIndent(f, "", "  ") }

// Explorer drives a grid through the successive-halving schedule on a
// runner.Pool. The pool supplies workers, memoization, DNF
// isolation and the checkpoint journal; the explorer never runs a
// simulation itself, so an exploration interrupted at any point resumes
// from the journal with every finished run served from cache — each rung's
// budget is part of the cache key (runner.Key includes the kernel length),
// so partial rungs resume mid-flight.
type Explorer struct {
	opts Options
	pool *runner.Pool
}

// New builds an explorer on pool.
func New(pool *runner.Pool, opts Options) (*Explorer, error) {
	if pool == nil {
		return nil, fmt.Errorf("explore: nil pool")
	}
	if len(opts.Benchmarks) == 0 {
		return nil, fmt.Errorf("explore: no benchmarks to score candidates on")
	}
	if len(opts.Grid.Topologies) == 0 {
		opts.Grid = DefaultGrid()
	}
	if len(opts.Seeds) == 0 {
		opts.Seeds = []uint64{1}
	}
	if len(opts.Rungs) == 0 {
		opts.Rungs = DefaultRungs()
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	prev := 0.0
	for i, r := range opts.Rungs {
		if r.Budget <= prev {
			return nil, fmt.Errorf("explore: rung %d budget %g must exceed rung %d's %g (budgets ascend)",
				i, r.Budget, i-1, prev)
		}
		if r.Margin < 0 {
			return nil, fmt.Errorf("explore: rung %d margin %g must be >= 0", i, r.Margin)
		}
		prev = r.Budget
	}
	return &Explorer{opts: opts, pool: pool}, nil
}

// Run executes the exploration. The frontier, rung logs and savings are
// deterministic for any worker count or lane width, and for a
// resumed run: every number derives from memoized per-run results and the
// candidate enumeration order. A cancelled context aborts with an error —
// the pool's journal keeps what finished.
func (e *Explorer) Run(ctx context.Context) (*Frontier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cands, err := e.opts.Grid.Candidates()
	if err != nil {
		return nil, err
	}

	f := &Frontier{
		Grid:       len(cands),
		Seeds:      e.opts.Seeds,
		PaperPoint: PaperPointName,
	}
	for _, p := range e.opts.Benchmarks {
		f.Benchmarks = append(f.Benchmarks, p.Abbr)
	}

	alive := make([]int, len(cands))
	for i := range cands {
		alive[i] = i
	}
	// lastCycles/lastBudget remember each candidate's most recent rung
	// cost, the basis of the exhaustive-cost extrapolation.
	lastCycles := make([]uint64, len(cands))
	lastBudget := make([]float64, len(cands))

	var final []Estimate
	for ri, rung := range e.opts.Rungs {
		est, rungCycles, err := e.scoreRung(ctx, cands, alive, rung.Budget)
		if err != nil {
			return nil, err
		}
		f.SimulatedCycles += rungCycles
		for _, idx := range alive {
			lastCycles[idx] = est[idx].Cycles
			lastBudget[idx] = rung.Budget
		}

		log := RungLog{Index: ri, Budget: rung.Budget, Margin: rung.Margin,
			Entered: len(alive), Cycles: rungCycles}

		// Candidates whose every run degraded have no estimate to
		// compete with: they leave as DNF rows, not dominance kills.
		scored := alive[:0]
		for _, idx := range alive {
			if est[idx].Runs == 0 {
				log.DNF = append(log.DNF, cands[idx].Name)
				continue
			}
			scored = append(scored, idx)
		}

		survivors, kills := killPass(scored, est, rung.Margin)
		log.Killed = kills
		log.Promoted = len(survivors)
		f.Rungs = append(f.Rungs, log)
		if ri < len(e.opts.Rungs)-1 {
			f.KilledEarly += len(kills) + len(log.DNF)
		}
		if e.opts.Progress != nil {
			fmt.Fprintf(e.opts.Progress,
				"explore rung %d: budget %.2f margin %.2f: %d entered, %d killed, %d dnf, %d promoted (%d icnt cycles)\n",
				ri, rung.Budget, rung.Margin, log.Entered, len(kills), len(log.DNF), log.Promoted, rungCycles)
		}
		alive = survivors

		if ri == len(e.opts.Rungs)-1 {
			for _, idx := range scored {
				final = append(final, est[idx])
			}
		}
		if len(alive) == 0 {
			break
		}
	}

	// Survivors: every final-rung entrant with a score, by name. Points:
	// the exact Pareto frontier over them, by area. (The final kill pass
	// already applied the last rung's margin; re-filtering at margin 0
	// yields the same frontier for any non-negative margin.)
	sort.Slice(final, func(i, j int) bool { return final[i].Candidate < final[j].Candidate })
	f.Survivors = final
	ipc := make([]float64, len(final))
	chip := make([]float64, len(final))
	for i, s := range final {
		ipc[i], chip[i] = s.IPC, s.ChipArea
	}
	for _, i := range stats.ParetoFrontier(ipc, chip) {
		f.Points = append(f.Points, final[i])
		if final[i].Candidate == PaperPointName {
			f.PaperPointOnFrontier = true
		}
	}

	for idx := range cands {
		if lastBudget[idx] > 0 {
			f.ExhaustiveCycles += uint64(float64(lastCycles[idx]) / lastBudget[idx])
		}
	}
	return f, nil
}

// scoreRung runs every (alive candidate × benchmark × seed) combination at
// the given budget as one pool batch (the pool plans it, so seed replicas
// ride lane batches) and aggregates the per-candidate estimates. Cached and
// journal-resumed outcomes count their cycles like fresh ones, so the
// savings accounting is identical for a resumed exploration.
func (e *Explorer) scoreRung(ctx context.Context, cands []Candidate, alive []int, budget float64) (map[int]Estimate, uint64, error) {
	benches, seeds := e.opts.Benchmarks, e.opts.Seeds
	per := len(benches) * len(seeds)
	cfgs := make([]core.Config, 0, len(alive)*per)
	for _, idx := range alive {
		for _, p := range benches {
			cfg := cands[idx].Build(p).ScaleWork(e.opts.Scale * budget)
			for _, seed := range seeds {
				c := cfg
				c.Seed = seed
				cfgs = append(cfgs, c)
			}
		}
	}
	outs := e.pool.Do(ctx, cfgs...)
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("explore: rung aborted: %w", err)
	}

	est := make(map[int]Estimate, len(alive))
	var total uint64
	pos := 0
	for _, idx := range alive {
		ev := Estimate{
			Candidate: cands[idx].Name,
			NoCArea:   cands[idx].NoCArea,
			ChipArea:  cands[idx].ChipArea,
		}
		var perBench []float64
		for range benches {
			var sum float64
			var n int
			for range seeds {
				o := outs[pos]
				pos++
				ev.Cycles += o.Result.IcntCycles
				if o.OK() && o.Result.IPC > 0 {
					sum += o.Result.IPC
					n++
					ev.Runs++
				} else {
					ev.DNF++
				}
			}
			if n > 0 {
				perBench = append(perBench, sum/float64(n))
			}
		}
		if len(perBench) > 0 {
			ev.IPC = stats.HarmonicMean(perBench)
			ev.TE = ev.IPC / ev.ChipArea
		}
		total += ev.Cycles
		est[idx] = ev
	}
	return est, total, nil
}

// killPass partitions the scored candidates into survivors and
// margin-dominated kills. Candidates are scanned in (area asc, IPC desc,
// name) order, so every potential dominator of a candidate — smaller or
// equal area — is classified before it, and only candidates that
// themselves survived may kill: a chain of borderline points cannot
// eliminate each other transitively. At margin 0 the survivors are exactly
// the Pareto frontier.
func killPass(scored []int, est map[int]Estimate, margin float64) ([]int, []Kill) {
	order := append([]int(nil), scored...)
	sort.Slice(order, func(i, j int) bool {
		a, b := est[order[i]], est[order[j]]
		if a.ChipArea != b.ChipArea {
			return a.ChipArea < b.ChipArea
		}
		if a.IPC != b.IPC {
			return a.IPC > b.IPC
		}
		return a.Candidate < b.Candidate
	})
	var accepted []int
	var kills []Kill
	for _, idx := range order {
		x := est[idx]
		killedBy := -1
		for _, a := range accepted {
			d := est[a]
			if stats.DominatesWithMargin(d.IPC, d.ChipArea, x.IPC, x.ChipArea, margin) {
				killedBy = a
				break
			}
		}
		if killedBy >= 0 {
			kills = append(kills, Kill{
				Candidate: x.Candidate, By: est[killedBy].Candidate,
				IPC: x.IPC, ChipArea: x.ChipArea,
			})
			continue
		}
		accepted = append(accepted, idx)
	}
	sort.Ints(accepted)
	sort.Slice(kills, func(i, j int) bool { return kills[i].Candidate < kills[j].Candidate })
	return accepted, kills
}
