package explore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
	"repro/internal/workload"
)

// tinyGrid is the smoke grid: 3 mesh placement/routing combinations × the
// double-network axis × MC injection ports = 12 candidates, small enough
// for the race-enabled CI step.
func tinyGrid() Grid {
	return Grid{
		Topologies: []string{"mesh"},
		Placements: []string{"tb", "cp"},
		Routings:   []string{"dor", "cr"},
		VCCounts:   []int{4},
		BufDepths:  []int{8},
		FlitBytes:  []int{16},
		Double:     []bool{false, true},
		MCInjPorts: []int{1, 2},
	}
}

func mumProfile(t testing.TB) workload.Profile {
	t.Helper()
	p, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newExplorerPool(t testing.TB, opts runner.Options) *runner.Pool {
	t.Helper()
	pool, err := runner.New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestExploreSmokeTinyGrid: the end-to-end engine on the smoke grid — rung
// accounting adds up, the frontier is a non-empty subset of the survivors,
// and the JSON round-trip works. This is the CI -race smoke step.
func TestExploreSmokeTinyGrid(t *testing.T) {
	pool := newExplorerPool(t, runner.Options{Jobs: 2})
	ex, err := New(pool, Options{
		Grid:       tinyGrid(),
		Benchmarks: []workload.Profile{mumProfile(t)},
		Scale:      0.01,
		Jobs:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f.Grid != 12 {
		t.Errorf("grid enumerated %d candidates, want 12", f.Grid)
	}
	if len(f.Rungs) != len(DefaultRungs()) {
		t.Fatalf("rung log has %d entries, want %d", len(f.Rungs), len(DefaultRungs()))
	}
	for i, rl := range f.Rungs {
		if got := len(rl.Killed) + len(rl.DNF) + rl.Promoted; got != rl.Entered {
			t.Errorf("rung %d: killed+dnf+promoted = %d, want entered %d", i, got, rl.Entered)
		}
		if i > 0 && rl.Entered != f.Rungs[i-1].Promoted {
			t.Errorf("rung %d entered %d, want previous rung's promoted %d", i, rl.Entered, f.Rungs[i-1].Promoted)
		}
	}
	if len(f.Points) == 0 || len(f.Points) > len(f.Survivors) {
		t.Fatalf("frontier has %d points over %d survivors", len(f.Points), len(f.Survivors))
	}
	surv := make(map[string]bool, len(f.Survivors))
	for _, s := range f.Survivors {
		surv[s.Candidate] = true
	}
	for i, pt := range f.Points {
		if !surv[pt.Candidate] {
			t.Errorf("frontier point %s is not a survivor", pt.Candidate)
		}
		if i > 0 && pt.ChipArea < f.Points[i-1].ChipArea {
			t.Errorf("frontier not sorted by area: %v after %v", pt.ChipArea, f.Points[i-1].ChipArea)
		}
	}
	if f.SimulatedCycles == 0 || f.ExhaustiveCycles < f.SimulatedCycles {
		t.Errorf("savings accounting: simulated %d, exhaustive %d", f.SimulatedCycles, f.ExhaustiveCycles)
	}
	if _, err := f.JSON(); err != nil {
		t.Fatalf("frontier JSON: %v", err)
	}
}

// TestExploreDeterministicAcrossJobs pins the determinism contract: the
// full machine-readable frontier — points, rung kill/promote logs, cycle
// accounting — is byte-identical for any worker count or lane plan.
func TestExploreDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs, maxprocs int) []byte {
		pool := newExplorerPool(t, runner.Options{Jobs: jobs})
		ex, err := New(pool, Options{
			Grid:       tinyGrid(),
			Benchmarks: []workload.Profile{mumProfile(t)},
			Seeds:      []uint64{1, 2},
			Scale:      0.01,
			Jobs:       jobs,
			MaxProcs:   maxprocs,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := ex.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		data, err := f.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := run(1, 1) // solo everything: 1-core degrade plan
	for _, c := range []struct{ jobs, maxprocs int }{{2, 8}, {4, 16}} {
		if got := run(c.jobs, c.maxprocs); string(got) != string(ref) {
			t.Errorf("frontier JSON differs between jobs=1 and jobs=%d (maxprocs=%d):\n--- ref ---\n%s\n--- got ---\n%s",
				c.jobs, c.maxprocs, ref, got)
		}
	}
}

// TestExploreResumesMidRung: an exploration interrupted partway through its
// first rung — some runs journaled, the rest never started — resumes from
// the checkpoint and reproduces the completed run's frontier byte for byte,
// re-executing only the missing simulations.
func TestExploreResumesMidRung(t *testing.T) {
	prof := mumProfile(t)
	opts := func(jobs int) Options {
		return Options{
			Grid:       tinyGrid(),
			Benchmarks: []workload.Profile{prof},
			Scale:      0.01,
			Jobs:       jobs,
		}
	}

	// The reference: a clean uninterrupted exploration.
	refPool := newExplorerPool(t, runner.Options{Jobs: 1})
	ex, err := New(refPool, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	refExecuted := refPool.Executed()

	// "Interrupt" mid-rung-0: journal only the first three candidates'
	// warm-up runs — exactly the configs the explorer would submit.
	journal := filepath.Join(t.TempDir(), "explore.ckpt")
	cands, err := tinyGrid().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	partial := newExplorerPool(t, runner.Options{Jobs: 1, Checkpoint: journal})
	warmup := DefaultRungs()[0].Budget
	for _, c := range cands[:3] {
		cfg := c.Build(prof).ScaleWork(0.01 * warmup)
		cfg.Seed = 1
		if out := partial.Do(cfg); !out.OK() {
			t.Fatalf("warm-up run for %s degraded: %+v", c.Name, out.Result)
		}
	}
	if err := partial.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the journaled runs come back from the checkpoint, the rest
	// execute, and the frontier is identical.
	resumed := newExplorerPool(t, runner.Options{Jobs: 1, Checkpoint: journal, Resume: true})
	ex2, err := New(resumed, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(refJSON) {
		t.Errorf("resumed frontier differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", refJSON, gotJSON)
	}
	if resumed.Executed() != refExecuted-3 {
		t.Errorf("resumed exploration executed %d runs, want %d (3 served from checkpoint)",
			resumed.Executed(), refExecuted-3)
	}
}

// TestExploreValidatesOptions: the constructor rejects broken schedules.
func TestExploreValidatesOptions(t *testing.T) {
	pool := newExplorerPool(t, runner.Options{Jobs: 1})
	bench := []workload.Profile{mumProfile(t)}
	if _, err := New(nil, Options{Benchmarks: bench}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := New(pool, Options{}); err == nil {
		t.Error("empty benchmark set accepted")
	}
	if _, err := New(pool, Options{Benchmarks: bench,
		Rungs: []Rung{{Budget: 0.5, Margin: 0}, {Budget: 0.25, Margin: 0}}}); err == nil {
		t.Error("descending budgets accepted")
	}
	if _, err := New(pool, Options{Benchmarks: bench,
		Rungs: []Rung{{Budget: 0.5, Margin: -0.1}, {Budget: 1, Margin: 0}}}); err == nil {
		t.Error("negative margin accepted")
	}
}

// TestExploreDefaultGridAcceptance is the paper-validation check: on the
// default multi-topology grid the successive-halving search must (a)
// recover the paper's combined checkerboard+CP+double-network design point
// on the Pareto frontier, (b) log >= 3x cycle savings over the exhaustive
// grid, and (c) produce the exact frontier an exhaustive full-budget sweep
// of the same grid produces. The exhaustive pass shares the pool, so the
// survivors' full-length runs come back from cache (their cycles still
// count, keeping the comparison honest).
func TestExploreDefaultGridAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-grid exploration skipped in -short mode")
	}
	const scale = 0.02
	pool := newExplorerPool(t, runner.Options{Jobs: 2})
	bench := []workload.Profile{mumProfile(t)}
	ex, err := New(pool, Options{Benchmarks: bench, Scale: scale, Jobs: 2, Progress: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !f.PaperPointOnFrontier {
		t.Errorf("paper point %s not recovered on the frontier:\n%v", f.PaperPoint, f.Points)
	}
	if s := f.CycleSavings(); s < 3 {
		t.Errorf("logged savings %.2fx, want >= 3x (simulated %d, exhaustive %d)",
			s, f.SimulatedCycles, f.ExhaustiveCycles)
	}

	exh, err := New(pool, Options{Benchmarks: bench, Scale: scale, Jobs: 2,
		Rungs: []Rung{{Budget: 1.0, Margin: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := exh.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	halved := make(map[string]bool, len(f.Points))
	for _, pt := range f.Points {
		halved[pt.Candidate] = true
	}
	if len(f.Points) != len(fe.Points) {
		t.Errorf("halving frontier has %d points, exhaustive %d", len(f.Points), len(fe.Points))
	}
	for _, pt := range fe.Points {
		if !halved[pt.Candidate] {
			t.Errorf("exhaustive frontier point %s missing from halving frontier (ipc=%.3f chip=%.1f)",
				pt.Candidate, pt.IPC, pt.ChipArea)
		}
	}
}
