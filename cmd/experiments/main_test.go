package main

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/experiments"
)

// cost is the decoded cost line.
type cost struct {
	Experiment string  `json:"experiment"`
	WallS      float64 `json:"wall_s"`
	Runs       int     `json:"runs"`
	Executed   int     `json:"executed"`
	Hits       int     `json:"hits"`
	IcntCycles uint64  `json:"icnt_cycles"`
}

// TestCostLine: the per-experiment stderr line is one JSON object whose
// counters are the deltas of the suite's state across the experiment. The
// suite is `-scale 0.05 -bench MUM,BIN fig7 fig16`: fig7 prefetches its 4
// runs (baseline and perfect network on 2 benchmarks) and recalls each
// while rendering, fig16 prefetches baseline and CP-DOR and recalls them
// too, and its 2 baseline runs come from fig7's memo table.
func TestCostLine(t *testing.T) {
	suite, err := experiments.New(experiments.Options{Scale: 0.05, Benchmarks: []string{"MUM", "BIN"}, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer suite.Close()

	measure := func(id string, wall time.Duration) (cost, []byte) {
		t.Helper()
		before := snapshot(suite)
		if _, err := suite.ByID(id); err != nil {
			t.Fatal(err)
		}
		line := costLine(id, wall, before, snapshot(suite))
		var got cost
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("cost line %s: %v", line, err)
		}
		return got, line
	}

	got, line := measure("fig7", 1500*time.Millisecond)
	if got.Experiment != "fig7" || got.WallS != 1.5 {
		t.Errorf("cost line %s: want experiment fig7, wall_s 1.5", line)
	}
	if got.Runs != 4 || got.Executed != 4 || got.Hits != 4 || got.IcntCycles == 0 {
		t.Errorf("cost line %s: want runs 4, executed 4, hits 4 (the render pass) and cycles > 0 on a fresh suite", line)
	}

	// fig16 runs only its 2 CP-DOR configurations; fig7's 2 baseline runs
	// are hits, on top of the 4 render-pass recalls.
	got, line = measure("fig16", 0)
	if got.Runs != 2 || got.Executed != 2 || got.Hits != 2+4 {
		t.Errorf("cost line %s: want runs 2, executed 2, hits 6 (2 baseline runs and 4 recalls)", line)
	}

	// A repeat is served from the memo table: nothing new, nothing run,
	// every request a hit.
	got, line = measure("fig7", 0)
	if got.Runs != 0 || got.Executed != 0 || got.Hits != 8 || got.IcntCycles != 0 {
		t.Errorf("repeated experiment cost %s, want zero runs, executed and cycles and 8 hits", line)
	}
}
