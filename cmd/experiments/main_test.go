package main

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestCostLine: the per-experiment stderr line is one JSON object whose
// counters are the deltas of the suite's state across the experiment.
func TestCostLine(t *testing.T) {
	suite, err := experiments.New(experiments.Options{Scale: 0.002, Benchmarks: []string{"MUM"}, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer suite.Close()

	before := snapshot(suite)
	if _, err := suite.ByID("fig7"); err != nil {
		t.Fatal(err)
	}
	after := snapshot(suite)
	line := costLine("fig7", 1500*time.Millisecond, before, after)

	var got struct {
		Experiment string  `json:"experiment"`
		WallS      float64 `json:"wall_s"`
		Runs       int     `json:"runs"`
		Executed   int     `json:"executed"`
		IcntCycles uint64  `json:"icnt_cycles"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("cost line %s: %v", line, err)
	}
	if got.Experiment != "fig7" || got.WallS != 1.5 {
		t.Errorf("cost line %s: want experiment fig7, wall_s 1.5", line)
	}
	if got.Runs == 0 || got.Executed != got.Runs || got.IcntCycles == 0 {
		t.Errorf("cost line %s: want runs == executed > 0 and cycles > 0 on a fresh suite", line)
	}

	// A repeat is served from the memo table: nothing new, nothing run.
	if _, err := suite.ByID("fig7"); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(costLine("fig7", 0, after, snapshot(suite)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Runs != 0 || got.Executed != 0 || got.IcntCycles != 0 {
		t.Errorf("repeated experiment cost %+v, want all-zero deltas", got)
	}
}
