package experiments

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/stats"
)

// Explore runs the design-space exploration engine (internal/explore) on
// the suite's worker pool: every candidate of the default multi-topology
// grid is scored at full length — like the resilience sweep — on one light
// (LL) and one heavy (HH) benchmark from the suite's set, so the frontier
// reflects both latency- and bandwidth-bound behaviour without multiplying
// the grid by all 31 workloads. Seed replicas (Options.Seeds) ride the
// pool's planner as lane batches; the suite's checkpoint journal makes the
// exploration resumable mid-sweep.
func (s *Suite) Explore() (*Report, error) {
	ex, err := explore.New(s.pool, explore.Options{
		Benchmarks: s.resilienceBench(),
		Seeds:      s.opts.Seeds,
		Scale:      s.opts.Scale,
	})
	if err != nil {
		return nil, err
	}
	f, err := ex.Run(s.opts.Context)
	if err != nil {
		return nil, err
	}
	s.frontier = f
	s.requests.Add(int64(f.Grid * len(f.Benchmarks) * len(f.Seeds)))

	tb := stats.NewTable("Explore: throughput-effectiveness Pareto frontier",
		"candidate", "IPC (hmean)", "NoC mm^2", "chip mm^2", "IPC/mm^2", "runs", "dnf")
	for _, pt := range f.Points {
		tb.AddRow(pt.Candidate, pt.IPC, pt.NoCArea, pt.ChipArea,
			fmt.Sprintf("%.5f", pt.TE), pt.Runs, pt.DNF)
	}

	summary := []string{
		fmt.Sprintf("grid: %d valid candidates over %v; %d scored, %d dnf; frontier: %d points",
			f.Grid, f.Benchmarks, len(f.Survivors), len(f.DNF), len(f.Points)),
		fmt.Sprintf("simulated %d icnt cycles", f.SimulatedCycles),
		fmt.Sprintf("validation: paper combined design %s on frontier: %v", f.PaperPoint, f.PaperPointOnFrontier),
	}
	if len(f.DNF) > 0 {
		summary = append(summary, fmt.Sprintf("dnf candidates: %v", f.DNF))
	}

	return &Report{
		ID:      "explore",
		Title:   "Design-space exploration (IPC vs chip mm^2)",
		Table:   tb,
		Summary: summary,
	}, nil
}

// Frontier returns the machine-readable result of the last Explore call
// (nil before any). The CLI serializes it with its JSON method.
func (s *Suite) Frontier() *explore.Frontier { return s.frontier }
