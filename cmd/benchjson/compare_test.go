package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

const fixture = "testdata/captures.json"

// TestCompareFixture pins the per-family deltas on a hand-computed fixture:
// CycleKernel gets faster (geomean of 0.8 and 0.9), LaneKernel slows by 10 %
// in both rows, CoreTick keeps its time but starts allocating, and rows
// present in only one capture are ignored.
func TestCompareFixture(t *testing.T) {
	before, err := loadCapture(fixture + "#before")
	if err != nil {
		t.Fatal(err)
	}
	after, err := loadCapture(fixture + "#after")
	if err != nil {
		t.Fatal(err)
	}
	deltas := compareCaptures(before, after, 5)
	want := []FamilyDelta{
		{Family: "BenchmarkCoreTick", Rows: 1, NsDelta: 0, AllocsDelta: 300, Regressed: true},
		{Family: "BenchmarkCycleKernel", Rows: 2, NsDelta: 100 * (math.Sqrt(0.8*0.9) - 1), AllocsDelta: 0},
		{Family: "BenchmarkLaneKernel", Rows: 2, NsDelta: 10, AllocsDelta: 0, Regressed: true},
	}
	if len(deltas) != len(want) {
		t.Fatalf("got %d families %+v, want %d", len(deltas), deltas, len(want))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for i, w := range want {
		g := deltas[i]
		if g.Family != w.Family || g.Rows != w.Rows || g.Regressed != w.Regressed ||
			!near(g.NsDelta, w.NsDelta) || !near(g.AllocsDelta, w.AllocsDelta) {
			t.Errorf("family %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestCompareExitCodes holds runCompare's contract: 1 on a regression past
// the threshold, 0 once the threshold admits it, 2 on unusable input.
func TestCompareExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		threshold float64
		code      int
	}{
		{"regression", []string{fixture + "#before", fixture + "#after"}, 5, 1},
		{"inside-noise", []string{fixture + "#before", fixture + "#after"}, 400, 0},
		{"unknown-label", []string{fixture + "#before", fixture + "#nope"}, 5, 2},
		{"missing-file", []string{"testdata/absent.json", fixture}, 5, 2},
		{"no-shared-rows", []string{fixture + "#before", fixture}, 5, 2}, // default: last capture
		{"one-arg", []string{fixture}, 5, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code := runCompare(tc.args, tc.threshold, &out); code != tc.code {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.code, out.String())
			}
			if tc.code == 1 && strings.Count(out.String(), "REGRESSION") != 2 {
				t.Fatalf("want two REGRESSION rows:\n%s", out.String())
			}
		})
	}
}
