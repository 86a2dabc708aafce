package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workload"
)

// quickSuite runs three benchmarks (one per class) at a small scale; it
// exercises the full experiment plumbing without the cost of calibration-
// grade runs.
func quickSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := New(Options{Scale: 0.15, Benchmarks: []string{"BIN", "CON", "MUM"}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesBenchmarks(t *testing.T) {
	if _, err := New(Options{Benchmarks: []string{"NOPE"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks()) != 31 {
		t.Errorf("default suite has %d benchmarks, want 31", len(s.Benchmarks()))
	}
}

func TestRunCaching(t *testing.T) {
	s := quickSuite(t)
	r1 := s.Fig11()
	before := s.Executed()
	r2 := s.Fig11()
	if s.Executed() != before {
		t.Error("second Fig11 ran new simulations despite cache")
	}
	if r1.Table.String() != r2.Table.String() {
		t.Error("cached rerun produced different table")
	}
}

func TestFig7ReportShape(t *testing.T) {
	s := quickSuite(t)
	rep := s.Fig7()
	out := rep.String()
	for _, want := range []string{"fig7", "BIN", "CON", "MUM", "paper +36%", "paper +87%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 report missing %q:\n%s", want, out)
		}
	}
	// The memory-bound benchmark must show a larger perfect-net speedup
	// than the compute-bound one even at reduced scale.
	lines := strings.Split(out, "\n")
	var binLine, mumLine string
	for _, l := range lines {
		if strings.HasPrefix(l, "BIN") {
			binLine = l
		}
		if strings.HasPrefix(l, "MUM") {
			mumLine = l
		}
	}
	if binLine == "" || mumLine == "" {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		speedup, traffic float64
		want             string
	}{
		{1.05, 0.3, "LL"},
		{1.05, 2.0, "LH"},
		{1.9, 4.0, "HH"},
		{1.31, 0.9, "HL"}, // possible in principle; paper observed none
	}
	for _, c := range cases {
		if got := classOf(c.speedup, c.traffic); got != c.want {
			t.Errorf("classOf(%v,%v) = %s, want %s", c.speedup, c.traffic, got, c.want)
		}
	}
}

func TestPaperClassOf(t *testing.T) {
	if paperClassOf("MUM") != "HH" || paperClassOf("BIN") != "LL" {
		t.Error("paper classes wrong")
	}
	if paperClassOf("XXX") != "?" {
		t.Error("unknown abbr should map to ?")
	}
}

func TestByIDAndIDs(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	// Table6 involves no simulation: safe to run fully.
	rep, err := s.ByID("table6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "Baseline") {
		t.Error("table6 missing baseline row")
	}
	if len(IDs()) != 18 {
		t.Errorf("IDs() lists %d experiments, want 18", len(IDs()))
	}
}

func TestSuiteRecordsDNF(t *testing.T) {
	s := quickSuite(t)
	p, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Baseline(p)
	cfg.Name = "capped"
	cfg.MaxIcntCycles = 200 // far too few: must hit the cycle cap
	r := s.run(cfg)
	if r.OK() {
		t.Fatalf("capped run reported status %q", r.Status)
	}
	dnf := s.DNF()
	if len(dnf) != 1 || !strings.Contains(dnf[0], "capped|MUM: cycle-cap") {
		t.Fatalf("DNF rows = %v, want one capped|MUM cycle-cap entry", dnf)
	}
	// The degraded result is cached like any other: re-running must not
	// simulate again or duplicate the DNF record.
	before := s.Executed()
	_ = s.run(cfg)
	if s.Executed() != before || len(s.DNF()) != 1 {
		t.Error("cached DNF re-ran or duplicated")
	}
}

// TestSuiteRecordsRefusedAppendDNF: a run the checkpoint journal refused is
// an uncached "io_error" outcome, yet it stays on the DNF list (so the
// experiments command exits nonzero) until a later execution of the same
// key supersedes it.
func TestSuiteRecordsRefusedAppendDNF(t *testing.T) {
	s := quickSuite(t)
	out := runner.Outcome{Key: "refused|BIN|s1|i1", Attempts: 1,
		Result: core.Result{Config: "refused", Benchmark: "BIN", Status: "io_error"}}
	s.report(out)
	if dnf := s.DNF(); len(dnf) != 1 || dnf[0] != "refused|BIN: io_error" {
		t.Fatalf("DNF rows = %v, want one refused|BIN io_error entry", dnf)
	}
	out.Result.Status = "ok"
	s.report(out)
	if dnf := s.DNF(); len(dnf) != 0 {
		t.Errorf("DNF rows after a durable re-run = %v, want none", dnf)
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	s := quickSuite(t)
	rep := s.Table6()
	out := rep.String()
	// Spot-check the printed sums against Table VI.
	for _, want := range []string{"69.0", "576", "59.2", "537.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table6 missing %q:\n%s", want, out)
		}
	}
}

func TestFig11StallsOnMemoryBound(t *testing.T) {
	s := quickSuite(t)
	rep := s.Fig11()
	out := rep.Table.String()
	// MUM is memory bound: its row must show a nonzero stall percentage.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "MUM") {
			if strings.Contains(line, " 0.0%") {
				t.Errorf("MUM shows no MC stall: %q", line)
			}
			return
		}
	}
	t.Fatalf("MUM row missing:\n%s", out)
}

func TestPct(t *testing.T) {
	if pct(1.17) != "+17.0%" {
		t.Errorf("pct(1.17) = %s", pct(1.17))
	}
	if pct(0.95) != "-5.0%" {
		t.Errorf("pct(0.95) = %s", pct(0.95))
	}
}

func TestPearson(t *testing.T) {
	cases := []struct {
		id     string
		xs, ys []float64
		want   float64
		ok     bool
	}{
		{"empty", nil, nil, 0, false},
		{"one-pair", []float64{0.3}, []float64{1.4}, 0, false},
		{"constant-x", []float64{0.1, 0.1, 0.1}, []float64{1, 2, 3}, 0, false},
		{"constant-y", []float64{1, 2, 3}, []float64{1.2, 1.2, 1.2}, 0, false},
		{"linear", []float64{1, 2, 3, 4}, []float64{2, 5, 8, 11}, 1, true},
		{"anti-linear", []float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}, -1, true},
		// Deviations (-2,-1,0,1,2) and (-2,0,1,0,1): r = 6/sqrt(10·6).
		{"textbook", []float64{1, 2, 3, 4, 5}, []float64{2, 4, 5, 4, 5}, 6 / math.Sqrt(60), true},
	}
	for _, tc := range cases {
		got, ok := pearson(tc.xs, tc.ys)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: pearson = %v, %v; want %v, %v", tc.id, got, ok, tc.want, tc.ok)
		}
	}
}

// TestFig8SinglePointCorrelation pins the summary of a one-benchmark Fig 8:
// a single finished point has no correlation, and the report says so.
func TestFig8SinglePointCorrelation(t *testing.T) {
	s, err := New(Options{Scale: 0.05, Benchmarks: []string{"MUM"}})
	if err != nil {
		t.Fatal(err)
	}
	out := s.Fig8().String()
	if !strings.Contains(out, "measured r=n/a") {
		t.Fatalf("one-point fig8 summary lacks r=n/a:\n%s", out)
	}
}
