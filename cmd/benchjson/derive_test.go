package main

import "testing"

func TestFamily(t *testing.T) {
	cases := []struct{ name, want string }{
		{"BenchmarkCoreTick", "BenchmarkCoreTick"},
		{"BenchmarkCycleKernel/low-load", "BenchmarkCycleKernel"},
		{"BenchmarkLaneKernel/mesh-l4", "BenchmarkLaneKernel"},
		{"BenchmarkIdleSkipClosedLoop/skip", "BenchmarkIdleSkipClosedLoop"},
		{"BenchmarkLaneThroughput-l4", "BenchmarkLaneThroughput"},
		{"BenchmarkLaneThroughput-l1/manycore", "BenchmarkLaneThroughput"},
		{"BenchmarkLanes-lx", "BenchmarkLanes-lx"}, // not a lane count
	}
	for _, c := range cases {
		if got := family(c.name); got != c.want {
			t.Errorf("family(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

// bench builds a row carrying only ns/op.
func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Metrics: map[string]float64{"ns/op": ns}}
}

// TestDeriveSpeedups pins the two derived ratios: speedup_vs_noskip is
// noskip ns/op over skip ns/op, speedup_vs_l1 is solo ns/op times the lane
// count over batch ns/op. A row without its baseline, a baseline row itself
// and a row with no time get no metric.
func TestDeriveSpeedups(t *testing.T) {
	benches := []Benchmark{
		bench("BenchmarkIdle/closed/skip", 50),
		bench("BenchmarkIdle/closed/noskip", 200),
		bench("BenchmarkIdle/orphan/skip", 50),
		bench("BenchmarkIdle/zero/skip", 0),
		bench("BenchmarkIdle/zero/noskip", 100),
		bench("BenchmarkLaneKernel/mesh-l1", 100),
		bench("BenchmarkLaneKernel/mesh-l4", 200),
		bench("BenchmarkLaneKernel/ring-l2", 80),
	}
	deriveSkipSpeedups(benches)
	deriveLaneSpeedups(benches)
	want := map[string]map[string]float64{
		"BenchmarkIdle/closed/skip":   {"speedup_vs_noskip": 4},
		"BenchmarkLaneKernel/mesh-l4": {"speedup_vs_l1": 2},
	}
	for _, b := range benches {
		for _, metric := range []string{"speedup_vs_noskip", "speedup_vs_l1"} {
			got, ok := b.Metrics[metric]
			w, wantOK := want[b.Name][metric]
			if ok != wantOK || got != w {
				t.Errorf("%s: %s = %v (present %v), want %v (present %v)", b.Name, metric, got, ok, w, wantOK)
			}
		}
	}
}
