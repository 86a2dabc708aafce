package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9 || math.Abs(a-b) < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.N() != 0 {
		t.Fatal("zero Mean should report 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Add(v)
	}
	if !almostEqual(m.Value(), 2.5) {
		t.Errorf("mean = %v, want 2.5", m.Value())
	}
	if m.Sum() != 10 || m.N() != 4 {
		t.Errorf("sum/n = %v/%v, want 10/4", m.Sum(), m.N())
	}
}

func TestHarmonicMeanKnown(t *testing.T) {
	got := HarmonicMean([]float64{1, 2, 4})
	want := 3.0 / (1 + 0.5 + 0.25)
	if !almostEqual(got, want) {
		t.Errorf("harmonic mean = %v, want %v", got, want)
	}
}

func TestHarmonicMeanEmpty(t *testing.T) {
	if HarmonicMean(nil) != 0 {
		t.Error("harmonic mean of empty slice should be 0")
	}
}

func TestHarmonicMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive value")
		}
	}()
	HarmonicMean([]float64{1, 0, 2})
}

func TestHarmonicLeqArithmetic(t *testing.T) {
	// Property: HM <= AM for positive inputs, equal iff all equal.
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v := math.Abs(v); v > 1e-6 && v < 1e6 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		return HarmonicMean(vs) <= ArithmeticMean(vs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramMeanMax(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []float64{5, 15, 25, 95, 150} {
		h.Add(v)
	}
	if h.N() != 5 {
		t.Errorf("N = %d, want 5", h.N())
	}
	if !almostEqual(h.Mean(), 58) {
		t.Errorf("mean = %v, want 58", h.Mean())
	}
	if h.Max() != 150 {
		t.Errorf("max = %v, want 150", h.Max())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	p50 := h.Percentile(0.5)
	if p50 < 49 || p50 > 51 {
		t.Errorf("p50 = %v, want ~50", p50)
	}
	if !math.IsInf(mustOverflowP(), 1) {
		t.Error("percentile should be +Inf when target falls in overflow")
	}
}

func mustOverflowP() float64 {
	h := NewHistogram(1, 2)
	h.Add(100) // overflow bucket
	return h.Percentile(0.99)
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero bucket width")
		}
	}()
	NewHistogram(0, 5)
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 0.12345)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "0.1235") {
		t.Errorf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines (title+header+2 rows), got %d: %q", len(lines), out)
	}

	// The sweep verdict line the CLIs print under their tables.
	var o Outcomes
	if got := o.Summary(); got != "0 runs" {
		t.Errorf("empty summary = %q, want \"0 runs\"", got)
	}
	o.Observe("ok")
	o.Observe("")
	o.Observe("deadlock")
	if got, want := o.Summary(), "3 runs: 2 ok, 1 DNF"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}
}

// TestDominatesWithMargin pins plain Pareto dominance, the explorer's
// frontier rule (the name predates the removal of its kill margins).
func TestDominatesWithMargin(t *testing.T) {
	cases := []struct {
		name        string
		ipcA, areaA float64
		ipcB, areaB float64
		want        bool
	}{
		{"strictly better both axes", 2, 10, 1, 20, true},
		{"better ipc same area", 2, 10, 1, 10, true},
		{"same ipc smaller area", 1, 5, 1, 10, true},
		{"identical points never dominate", 1, 10, 1, 10, false},
		{"larger area never dominates", 3, 20, 1, 10, false},
		{"worse ipc never dominates", 0.5, 5, 1, 10, false},
	}
	for _, c := range cases {
		if got := Dominates(c.ipcA, c.areaA, c.ipcB, c.areaB); got != c.want {
			t.Errorf("%s: Dominates(%v,%v,%v,%v) = %v, want %v",
				c.name, c.ipcA, c.areaA, c.ipcB, c.areaB, got, c.want)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	// Points: (ipc, area). 0 and 2 are on the frontier; 1 is dominated by 0;
	// 3 duplicates 0 exactly so both survive.
	ipc := []float64{2.0, 1.5, 1.0, 2.0}
	area := []float64{10, 10, 5, 10}
	got := ParetoFrontier(ipc, area)
	want := []int{2, 0, 3} // sorted by area asc, then ipc desc, then index
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
	if f := ParetoFrontier(nil, nil); len(f) != 0 {
		t.Errorf("empty input frontier = %v, want empty", f)
	}
}

// TestWholeSampleSumsIgnoreOrder pins why the drivers may add latency
// samples in any order: latencies are whole cycles, and a float64 sum of
// whole numbers below 2^53 is exact, so a Mean and a Histogram fed the same
// samples in any order hold bit-identical sums.
func TestWholeSampleSumsIgnoreOrder(t *testing.T) {
	rng := xrand.New(3)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = float64(rng.Intn(4096))
	}
	samples[0] = 1 << 40 // a large sample that would swallow fractions
	feed := func() (Mean, *Histogram) {
		var m Mean
		h := NewHistogram(4, 1024)
		for _, v := range samples {
			m.Add(v)
			h.Add(v)
		}
		return m, h
	}
	m0, h0 := feed()
	for round := 0; round < 20; round++ {
		for i := len(samples) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			samples[i], samples[j] = samples[j], samples[i]
		}
		m, h := feed()
		if math.Float64bits(m.Value()) != math.Float64bits(m0.Value()) ||
			math.Float64bits(h.Mean()) != math.Float64bits(h0.Mean()) {
			t.Fatalf("round %d: shuffled order moved the mean: %v/%v, want %v/%v",
				round, m.Value(), h.Mean(), m0.Value(), h0.Mean())
		}
	}
}
