package explore

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
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

// TestExploreSmokeTinyGrid: the end-to-end engine on the smoke grid — every
// candidate is accounted for as a survivor or a DNF, the frontier is a
// non-empty subset of the survivors, and the JSON round-trip works. This is
// the CI -race smoke step.
func TestExploreSmokeTinyGrid(t *testing.T) {
	pool := newExplorerPool(t, runner.Options{Jobs: 2})
	ex, err := New(pool, Options{
		Grid:       tinyGrid(),
		Benchmarks: []workload.Profile{mumProfile(t)},
		Scale:      0.01,
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
	if got := len(f.Survivors) + len(f.DNF); got != f.Grid {
		t.Errorf("survivors+dnf = %d, want grid %d", got, f.Grid)
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
	if f.SimulatedCycles == 0 {
		t.Error("sweep reports 0 simulated cycles")
	}
	if _, err := f.JSON(); err != nil {
		t.Fatalf("frontier JSON: %v", err)
	}
}

// TestExploreDeterministicAcrossJobs pins the determinism contract: the
// full machine-readable frontier — points, survivors, DNF names, cycle
// accounting — is byte-identical for any worker count or lane plan.
func TestExploreDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs, maxprocs int) []byte {
		// The pool plans the sweep from its Jobs and GOMAXPROCS, so the
		// core budget is set process-wide for this point and restored.
		prev := runtime.GOMAXPROCS(maxprocs)
		defer runtime.GOMAXPROCS(prev)
		pool := newExplorerPool(t, runner.Options{Jobs: jobs})
		ex, err := New(pool, Options{
			Grid:       tinyGrid(),
			Benchmarks: []workload.Profile{mumProfile(t)},
			Seeds:      []uint64{1, 2},
			Scale:      0.01,
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
// sweep — some runs journaled, the rest never started — resumes from the
// checkpoint and reproduces the completed run's frontier byte for byte,
// re-executing only the missing simulations. (The name predates the
// single-batch sweep.)
func TestExploreResumesMidRung(t *testing.T) {
	prof := mumProfile(t)
	opts := Options{
		Grid:       tinyGrid(),
		Benchmarks: []workload.Profile{prof},
		Scale:      0.01,
	}

	// The reference: a clean uninterrupted exploration.
	refPool := newExplorerPool(t, runner.Options{Jobs: 1})
	ex, err := New(refPool, opts)
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

	// "Interrupt" mid-sweep: journal only the first three candidates'
	// runs — exactly the configs the explorer would submit.
	journal := filepath.Join(t.TempDir(), "explore.ckpt")
	cands, err := tinyGrid().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	partial := newExplorerPool(t, runner.Options{Jobs: 1, Checkpoint: journal})
	for _, c := range cands[:3] {
		cfg := c.Build(prof).ScaleWork(opts.Scale)
		cfg.Seed = 1
		if out := partial.Do(context.Background(), cfg)[0]; !out.OK() {
			t.Fatalf("run for %s degraded: %+v", c.Name, out.Result)
		}
	}
	if err := partial.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the journaled runs come back from the checkpoint, the rest
	// execute, and the frontier is identical.
	resumed := newExplorerPool(t, runner.Options{Jobs: 1, Checkpoint: journal, Resume: true})
	ex2, err := New(resumed, opts)
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

// TestExploreValidatesOptions: the constructor rejects a missing pool and
// an empty benchmark set.
func TestExploreValidatesOptions(t *testing.T) {
	pool := newExplorerPool(t, runner.Options{Jobs: 1})
	bench := []workload.Profile{mumProfile(t)}
	if _, err := New(nil, Options{Benchmarks: bench}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := New(pool, Options{}); err == nil {
		t.Error("empty benchmark set accepted")
	}
}

// goldenFrontier002 is the default grid's exact frontier on MUM at scale
// 0.02, by area: the candidate names of an exhaustive full-length sweep.
var goldenFrontier002 = []string{
	"x-ring-vc2-bd4-fb16-p1-dbl",
	"x-ring-vc2-bd4-fb16-p2-dbl",
	"x-ring-vc2-bd8-fb16-p1-dbl",
	"x-ring-vc4-bd4-fb16-p1-dbl",
	"x-ring-vc4-bd4-fb16-p2-dbl",
	"x-ring-vc4-bd8-fb16-p2-dbl",
	"x-ring-vc4-bd4-fb16-p1",
	"x-ring-vc4-bd4-fb16-p2",
	"x-ring-vc4-bd8-fb16-p1",
	"x-ring-vc4-bd8-fb16-p2",
	"x-mesh-cp-cr-vc2-bd4-fb16-p1-dbl",
	"x-mesh-cp-cr-vc2-bd4-fb16-p2-dbl",
	"x-mesh-cp-cr-vc4-bd4-fb16-p1-dbl",
	"x-mesh-cp-cr-vc2-bd8-fb16-p2-dbl",
	"x-mesh-cp-cr-vc4-bd4-fb16-p2-dbl",
	"x-mesh-cp-dor-vc2-bd8-fb16-p2-dbl",
	"x-mesh-cp-dor-vc4-bd8-fb16-p2-dbl",
	"x-mesh-cp-cr-vc4-bd4-fb16-p1",
	"x-mesh-cp-cr-vc4-bd4-fb16-p2",
	"x-mesh-cp-cr-vc4-bd8-fb16-p2",
	"x-mesh-cp-dor-vc4-bd4-fb16-p2",
	"x-mesh-cp-dor-vc2-bd8-fb32-p2",
	"x-mesh-cp-dor-vc4-bd4-fb32-p2",
}

// TestExploreDefaultGridAcceptance is the paper-validation check on the
// default multi-topology grid: the paper's combined checkerboard + CP +
// double-network design is on the frontier, the frontier matches the
// recorded golden, and a brute-force dominance check written here agrees
// with stats.ParetoFrontier — every survivor off the frontier is dominated
// by a frontier point, and no survivor dominates a frontier point.
func TestExploreDefaultGridAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full default-grid exploration skipped in -short mode")
	}
	pool := newExplorerPool(t, runner.Options{Jobs: 2})
	ex, err := New(pool, Options{Benchmarks: []workload.Profile{mumProfile(t)}, Scale: 0.02})
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
	if got := len(f.Survivors) + len(f.DNF); got != f.Grid {
		t.Errorf("survivors+dnf = %d, want grid %d", got, f.Grid)
	}

	var names []string
	for _, pt := range f.Points {
		names = append(names, pt.Candidate)
	}
	if !reflect.DeepEqual(names, goldenFrontier002) {
		t.Errorf("frontier = %q\nwant golden %q", names, goldenFrontier002)
	}

	dominates := func(a, b Estimate) bool {
		return a.IPC >= b.IPC && a.ChipArea <= b.ChipArea && (a.IPC > b.IPC || a.ChipArea < b.ChipArea)
	}
	onFrontier := make(map[string]bool, len(f.Points))
	for _, pt := range f.Points {
		onFrontier[pt.Candidate] = true
	}
	for _, s := range f.Survivors {
		for _, pt := range f.Points {
			if dominates(s, pt) {
				t.Errorf("survivor %s dominates frontier point %s", s.Candidate, pt.Candidate)
			}
		}
		if onFrontier[s.Candidate] {
			continue
		}
		dominated := false
		for _, pt := range f.Points {
			if dominates(pt, s) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("survivor %s (ipc=%.3f chip=%.1f) is off the frontier but no frontier point dominates it",
				s.Candidate, s.IPC, s.ChipArea)
		}
	}
}
