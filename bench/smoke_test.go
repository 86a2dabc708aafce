package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/traffic"
)

// smokeSpec is one workload at the small size. A plain run makes two
// passes, so that the pass-to-pass identity check runs; a traced run makes
// one plain and one traced pass, which are compared the same way.
func smokeSpec(t *testing.T, workload string, trace bool) runSpec {
	rs := runSpec{
		workload: workload, seed: 7, small: true, trace: trace,
		workdir: t.TempDir(), minPasses: 2, setupReps: 2,
	}
	if trace {
		rs.minPasses = 1
	}
	return rs
}

// TestSmokePlain runs every workload through the benchmark's own code at
// the small size: every end-to-end metric is reported and positive, every
// output check passes, and nothing is left in the work directory.
func TestSmokePlain(t *testing.T) {
	for _, wl := range allWorkloads {
		t.Run(wl, func(t *testing.T) {
			rs := smokeSpec(t, wl, false)
			rep, err := measure(rs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d checks failed: %v", rep.failed, rep.attempted, rep.msgs)
			}
			for _, m := range endToEnd {
				if v := rep.metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %g, want a positive number", m.Name, v)
				}
			}
			if left, _ := os.ReadDir(rs.workdir); len(left) != 0 {
				t.Errorf("%d files left in the work directory, first %s", len(left), left[0].Name())
			}
		})
	}
}

// TestSmokeTraced runs every workload traced: the result line carries
// exactly the per-layer metrics, the layers a workload bypasses stay at
// zero (the open loop spends nothing in gpu, the perfect network moves no
// flits, the sweep rides the lane kernel), the CPU ledger adds up, and the
// span file is valid JSON lines.
func TestSmokeTraced(t *testing.T) {
	for _, wl := range allWorkloads {
		t.Run(wl, func(t *testing.T) {
			rs := smokeSpec(t, wl, true)
			rs.traceOut = filepath.Join(rs.workdir, "spans.jsonl")
			rep, err := measure(rs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", rep.failed, rep.attempted, rep.msgs)
			}
			for name, v := range rep.metrics {
				m, ok := findMetric(perLayer, name)
				if !ok {
					t.Errorf("metric %s is not in the manifest", name)
					continue
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %g", name, v)
				}
				// CPU samples may land anywhere; the rest must respect On.
				if v != 0 && m.On != nil && !m.on(wl) && !strings.HasSuffix(name, ".cpu_s") {
					t.Errorf("%s = %g on %s, which the manifest says never reports it", name, v, wl)
				}
			}
			cpu := 0.0
			for name, v := range rep.metrics {
				if strings.HasSuffix(name, ".cpu_s") {
					cpu += v
				}
			}
			if want := rep.cpuTotal / float64(rep.traced); math.Abs(cpu-want) > 1e-9 {
				t.Errorf("cpu_s metrics add up to %g s a pass, the profile holds %g", cpu, want)
			}
			// What the workloads were chosen for, at the small size.
			m := rep.metrics
			separated := m["core.icnt_cycles"] > 0
			switch wl {
			case wlClosedHH:
				separated = separated && m["noc.flit_hops"] > 0 && m["core.solo_runs"] == 2 && m["core.lane_runs"] == 0
			case wlClosedPerfect:
				separated = separated && m["noc.flit_hops"] == 0 && m["core.scalar_instrs"] > 0 && m["core.solo_runs"] == 1
			case wlOpenLoadLat:
				separated = separated && m["gpu.cpu_s"] == 0 && m["core.scalar_instrs"] == 0 && m["noc.flit_hops"] > 0 &&
					m["noc.ticks"] > 0 && m["noc.skipped_cycles"] > 0 && m["noc.saturated_points"] > 0
			case wlSweepLanes:
				separated = separated && m["core.lane_runs"] == 4 && m["runner.lane_width_mean"] == 2 &&
					m["core.solo_runs"] == 0 && m["runner.journal_syncs"] > 0 && m["runner.resume_ms"] > 0
			case wlService:
				separated = separated && m["service.repeat_hits"] == 4 && m["service.store_syncs"] > 0 &&
					m["core.solo_runs"] == 2 && m["service.overhead_ms_p50"] > 0 && m["service.repeat_p50_ms"] > 0
			}
			if !separated {
				t.Errorf("%s does not separate the layers it was chosen for: %v", wl, m)
			}

			var out bytes.Buffer
			if err := printReport(&out, rep, 1); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
				t.Errorf("result line: correct %t, %d attempted, %d failed, %d metrics (want %d)",
					res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(perLayer))
			}

			spans, err := os.ReadFile(rs.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, line := range bytes.Split(bytes.TrimSpace(spans), []byte("\n")) {
				var s span
				if err := json.Unmarshal(line, &s); err != nil || s.Name == "" || s.End < s.Start {
					t.Fatalf("bad span line %q: %v", line, err)
				}
				n++
			}
			if n != rep.spans || n == 0 {
				t.Errorf("%d span lines, %d spans recorded", n, rep.spans)
			}
		})
	}
}

// TestCorruptedResultsFailTheChecks feeds each output check a deliberately
// wrong result: every one must count as a failed operation.
func TestCorruptedResultsFailTheChecks(t *testing.T) {
	p := mustProfile("BIN")
	cfgs := []core.Config{core.Baseline(p), core.ThroughputEffective(p)}
	good := []core.Result{{Status: "ok", ScalarInstrs: 100}, {Status: "ok", ScalarInstrs: 100}}
	okPoint := traffic.Result{MeasuredPackets: 10, P50Latency: 20, P99Latency: 40, AcceptedLoad: 0.01}
	outs := []runner.Outcome{{Key: "k", Result: good[0]}}
	resumed := []runner.Outcome{{Key: "k", Result: good[0], Resumed: true}}
	doc := roundTrip{doc: []byte(`{"runs":[1]}`)}

	cases := map[string]struct {
		run  func(*checker)
		fail bool
	}{
		"closed ok": {func(c *checker) { checkClosedResults(c, cfgs, good) }, false},
		"closed deadlock": {func(c *checker) {
			checkClosedResults(c, cfgs, []core.Result{good[0], {Status: "deadlock", ScalarInstrs: 100}})
		}, true},
		"closed instrs differ": {func(c *checker) {
			checkClosedResults(c, cfgs, []core.Result{good[0], {Status: "ok", ScalarInstrs: 99}})
		}, true},
		"closed run missing": {func(c *checker) { checkClosedResults(c, cfgs, good[:1]) }, true},
		"open ok":            {func(c *checker) { checkOpenPoint(c, "Ring", traffic.Config{}, okPoint) }, false},
		"open no packets":    {func(c *checker) { r := okPoint; r.MeasuredPackets = 0; checkOpenPoint(c, "Ring", traffic.Config{}, r) }, true},
		"open p50 above p99": {func(c *checker) { r := okPoint; r.P50Latency = 50; checkOpenPoint(c, "Ring", traffic.Config{}, r) }, true},
		"resume ok":          {func(c *checker) { checkResume(c, outs, resumed, 0) }, false},
		"resume executed":    {func(c *checker) { checkResume(c, outs, resumed, 1) }, true},
		"resume differs": {func(c *checker) {
			bad := []runner.Outcome{{Key: "k", Result: core.Result{Status: "ok", ScalarInstrs: 101}, Resumed: true}}
			checkResume(c, outs, bad, 0)
		}, true},
		"repeat ok":      {func(c *checker) { checkRepeat(c, 0, doc, doc) }, false},
		"repeat differs": {func(c *checker) { checkRepeat(c, 0, roundTrip{doc: []byte(`{"runs":[2]}`)}, doc) }, true},
		"repeat 429":     {func(c *checker) { checkRepeat(c, 0, roundTrip{shed: true, problem: "POST /v1/runs: 429"}, doc) }, true},
	}
	for name, tc := range cases {
		c := &checker{}
		tc.run(c)
		if c.attempted == 0 {
			t.Errorf("%s: nothing attempted", name)
		}
		if (c.failed > 0) != tc.fail {
			t.Errorf("%s: %d of %d failed, want failure %t: %v", name, c.failed, c.attempted, tc.fail, c.msgs)
		}
	}
}

// TestFailedCheckIsReported: a failed check makes the result line incorrect.
func TestFailedCheckIsReported(t *testing.T) {
	rep := &report{spec: runSpec{workload: wlClosedHH}, metrics: map[string]float64{}, attempted: 3, failed: 1, msgs: []string{"x"}}
	var out bytes.Buffer
	if err := printReport(&out, rep, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", res)
	}
	if !strings.Contains(out.String(), "FAILED: x") {
		t.Errorf("the failure message is not printed:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins the selfcheck's quartiles to
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{9, 1, 4, 2, 7})
	if q1 != 1.5 || q2 != 4 || q3 != 8 {
		t.Errorf("quartiles of [9 1 4 2 7] = %g %g %g, want 1.5 4 8", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if q := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); q != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", q)
	}
}
