package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestExploreExperimentReport drives the design-space exploration through
// the suite registration ("explore" is invoked by name, not part of All):
// the report carries the frontier table, the sweep accounting and the
// validation line, and the machine-readable frontier is exposed for the
// CLI's -frontier-json. Scale 0.002 floors every kernel to probe length, so
// the full default grid stays cheap.
func TestExploreExperimentReport(t *testing.T) {
	if testing.Short() {
		t.Skip("default-grid exploration skipped in -short mode")
	}
	s, err := New(Options{Scale: 0.002, Benchmarks: []string{"MUM"}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Frontier() != nil {
		t.Fatal("Frontier() non-nil before any Explore call")
	}
	rep, err := s.ByID("explore")
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"---- explore: Design-space exploration (IPC vs chip mm^2) ----",
		"Pareto frontier", "grid: 120 valid candidates over [MUM]; 120 scored, 0 dnf; frontier: ",
		"validation: paper combined design"} {
		if !strings.Contains(out, want) {
			t.Errorf("explore report missing %q:\n%s", want, out)
		}
	}
	f := s.Frontier()
	if f == nil {
		t.Fatal("Frontier() nil after Explore")
	}
	if f.SimulatedCycles == 0 || len(f.Points) == 0 {
		t.Errorf("frontier missing data: %d points, %d simulated cycles", len(f.Points), f.SimulatedCycles)
	}
	if want := fmt.Sprintf("simulated %d icnt cycles", f.SimulatedCycles); !strings.Contains(out, want) {
		t.Errorf("explore report missing %q:\n%s", want, out)
	}
	if _, err := f.JSON(); err != nil {
		t.Fatalf("frontier JSON: %v", err)
	}
}

// TestResilienceSeedsByteIdentical is the satellite guard: routing seed
// replicas through the sweep planner must not change a single byte of the
// default single-seed table — and pinning Seeds to the builders' own seed
// is the same sweep by cache identity, so it cannot re-simulate anything.
func TestResilienceSeedsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resilience sweep comparison skipped in -short mode")
	}
	base, err := New(Options{Scale: 0.1, Benchmarks: []string{"BIN", "MUM"}})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Resilience().String()

	seeded, err := New(Options{Scale: 0.1, Benchmarks: []string{"BIN", "MUM"}, Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	got := seeded.Resilience().String()
	if got != want {
		t.Errorf("Seeds{1} resilience table differs from default:\n--- default ---\n%s--- seeded ---\n%s", want, got)
	}
	if seeded.Executed() != base.Executed() {
		t.Errorf("Seeds{1} executed %d runs, default %d — same sweep expected", seeded.Executed(), base.Executed())
	}
}

// TestResilienceSeedAveraging: with real replicas the sweep runs once per
// seed and the rows average the finished replicas.
func TestResilienceSeedAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed resilience sweep skipped in -short mode")
	}
	single, err := New(Options{Scale: 0.1, Benchmarks: []string{"MUM"}})
	if err != nil {
		t.Fatal(err)
	}
	single.Resilience()

	multi, err := New(Options{Scale: 0.1, Benchmarks: []string{"MUM"}, Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rep := multi.Resilience()
	if got, want := multi.Executed(), 2*single.Executed(); got != want {
		t.Errorf("two-seed sweep executed %d runs, want %d (twice the single-seed sweep)", got, want)
	}
	if !strings.Contains(rep.String(), "retains") && !strings.Contains(rep.String(), "no benchmark finished") {
		t.Errorf("multi-seed resilience summary malformed:\n%s", rep)
	}
}
