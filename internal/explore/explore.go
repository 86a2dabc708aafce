package explore

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

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
	// Scale multiplies kernel length (the suite's -scale knob); 0 means
	// 1.0.
	Scale float64
}

// Estimate is one candidate's score: the harmonic mean over benchmarks of
// the mean-over-seeds IPC, the analytic areas, and the simulation cost the
// estimate consumed.
type Estimate struct {
	Candidate string  `json:"candidate"`
	IPC       float64 `json:"ipc"`
	NoCArea   float64 `json:"noc_mm2"`
	ChipArea  float64 `json:"chip_mm2"`
	TE        float64 `json:"ipc_per_mm2"`
	Runs      int     `json:"runs"` // OK runs contributing to IPC
	DNF       int     `json:"dnf"`  // degraded runs
	Cycles    uint64  `json:"icnt_cycles"`
}

// Frontier is the machine-readable result of one exploration.
type Frontier struct {
	Grid       int      `json:"grid"` // valid candidates enumerated
	Benchmarks []string `json:"benchmarks"`
	Seeds      []uint64 `json:"seeds"`
	// Points is the exact Pareto frontier over Survivors, sorted by chip
	// area ascending.
	Points []Estimate `json:"frontier"`
	// Survivors is every candidate with at least one finished run
	// (frontier and dominated alike), sorted by candidate name.
	Survivors []Estimate `json:"survivors"`
	// DNF names the candidates whose every run degraded, sorted; Grid is
	// len(Survivors) + len(DNF).
	DNF []string `json:"dnf"`
	// PaperPointOnFrontier reports whether the paper's combined design
	// (PaperPoint) was recovered on Points — the validation check.
	PaperPoint           string `json:"paper_point"`
	PaperPointOnFrontier bool   `json:"paper_point_on_frontier"`
	// SimulatedCycles is the interconnect cycles the sweep's runs cost.
	SimulatedCycles uint64 `json:"simulated_cycles"`
}

// JSON renders the frontier for machines.
func (f *Frontier) JSON() ([]byte, error) { return json.MarshalIndent(f, "", "  ") }

// Explorer scores every candidate of a grid at full length on a
// runner.Pool. The pool supplies workers, memoization, DNF isolation and
// the checkpoint journal; the explorer never runs a simulation itself, so
// an exploration interrupted at any point resumes from the journal with
// every finished run served from cache.
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
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	return &Explorer{opts: opts, pool: pool}, nil
}

// Run executes the exploration: every (candidate × benchmark × seed) run
// goes to the pool as one batch, and the frontier is the exact Pareto
// frontier over the scored candidates. The result is deterministic for any
// worker count or lane width, and for a resumed run: every number derives
// from memoized per-run results and the candidate enumeration order. A
// cancelled context aborts with an error — the pool's journal keeps what
// finished.
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

	est, err := e.score(ctx, cands)
	if err != nil {
		return nil, err
	}
	// Candidates whose every run degraded have no estimate to compete
	// with: they leave as DNF names. est follows the name-sorted candidate
	// order, so Survivors and DNF come out sorted.
	for _, ev := range est {
		f.SimulatedCycles += ev.Cycles
		if ev.Runs == 0 {
			f.DNF = append(f.DNF, ev.Candidate)
			continue
		}
		f.Survivors = append(f.Survivors, ev)
	}

	ipc := make([]float64, len(f.Survivors))
	chip := make([]float64, len(f.Survivors))
	for i, s := range f.Survivors {
		ipc[i], chip[i] = s.IPC, s.ChipArea
	}
	for _, i := range stats.ParetoFrontier(ipc, chip) {
		f.Points = append(f.Points, f.Survivors[i])
		if f.Survivors[i].Candidate == PaperPointName {
			f.PaperPointOnFrontier = true
		}
	}
	return f, nil
}

// score runs every (candidate × benchmark × seed) combination at full
// length as one pool batch (the pool plans it, so seed replicas ride lane
// batches) and returns the per-candidate estimates in candidate order.
// Cached and journal-resumed outcomes count their cycles like fresh ones,
// so a resumed exploration reports the same cost.
func (e *Explorer) score(ctx context.Context, cands []Candidate) ([]Estimate, error) {
	benches, seeds := e.opts.Benchmarks, e.opts.Seeds
	cfgs := make([]core.Config, 0, len(cands)*len(benches)*len(seeds))
	for _, c := range cands {
		for _, p := range benches {
			cfg := c.Build(p).ScaleWork(e.opts.Scale)
			for _, seed := range seeds {
				cfg.Seed = seed
				cfgs = append(cfgs, cfg)
			}
		}
	}
	outs := e.pool.Do(ctx, cfgs...)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("explore: sweep aborted: %w", err)
	}

	est := make([]Estimate, len(cands))
	pos := 0
	for i, c := range cands {
		ev := Estimate{Candidate: c.Name, NoCArea: c.NoCArea, ChipArea: c.ChipArea}
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
		est[i] = ev
	}
	return est, nil
}
