package explore

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestGridCandidates pins the enumeration contract on the default grid:
// names are unique and sorted, the paper's combined design is present, the
// simulator-invalid combinations are filtered, and the backend-specific
// axis collapses hold.
func TestGridCandidates(t *testing.T) {
	cands, err := DefaultGrid().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 100 {
		t.Fatalf("default grid enumerates %d candidates, want >= 100", len(cands))
	}
	seen := make(map[string]bool, len(cands))
	paper := false
	for i, c := range cands {
		if seen[c.Name] {
			t.Errorf("duplicate candidate %s", c.Name)
		}
		seen[c.Name] = true
		if i > 0 && cands[i-1].Name >= c.Name {
			t.Errorf("candidates not sorted: %s before %s", cands[i-1].Name, c.Name)
		}
		if c.Name == PaperPointName {
			paper = true
		}
		if c.NoCArea <= 0 || c.ChipArea <= c.NoCArea {
			t.Errorf("%s: bad areas NoC=%v chip=%v", c.Name, c.NoCArea, c.ChipArea)
		}
		switch c.Topology {
		case "basejump":
			if c.FlitB != singleFlitWidth() {
				t.Errorf("%s: basejump channel %dB, want pinned %dB", c.Name, c.FlitB, singleFlitWidth())
			}
			if c.Double {
				t.Errorf("%s: single-flit backend cannot slice into a double network", c.Name)
			}
		case "ring":
			if c.Placement != "tb" || c.Routing != "dor" {
				t.Errorf("%s: non-mesh placement/routing axes should collapse, got %s/%s",
					c.Name, c.Placement, c.Routing)
			}
		}
		if c.Routing == "cr" && c.Placement != "cp" {
			t.Errorf("%s: checkerboard routing without checkerboard placement", c.Name)
		}
	}
	if !paper {
		t.Errorf("paper point %s not enumerated", PaperPointName)
	}
	// Checkerboard routing on a single network needs 4 VCs (two phases ×
	// split classes); the 2-VC variant only exists sliced.
	if seen["x-mesh-cp-cr-vc2-bd8-fb16-p2"] {
		t.Error("invalid single-network CR 2-VC candidate survived enumeration")
	}
	if !seen["x-mesh-cp-cr-vc2-bd8-fb16-p2-dbl"] {
		t.Error("sliced CR 2-VC candidate missing")
	}
}

// TestCandidateBuildCarriesName: runner cache identity comes from the
// candidate name, and the sweep's scale lands in the kernel length.
func TestCandidateBuildCarriesName(t *testing.T) {
	cands, err := tinyGrid().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	prof := mumProfile(t)
	for _, c := range cands {
		cfg := c.Build(prof)
		if cfg.Name != c.Name {
			t.Errorf("Build name %q, want %q", cfg.Name, c.Name)
		}
		if got := cfg.ScaleWork(0.05).Workload.InstrsPerWarp; got >= cfg.Workload.InstrsPerWarp {
			t.Errorf("%s: scaling did not shorten the kernel (%d -> %d)",
				c.Name, cfg.Workload.InstrsPerWarp, got)
		}
	}
}

// TestPaperPointNameMatchesGrammar: the validation constant stays in sync
// with the name derivation.
func TestPaperPointNameMatchesGrammar(t *testing.T) {
	c := Candidate{Topology: "mesh", Placement: "cp", Routing: "cr",
		VCs: 2, BufDepth: 8, FlitB: 16, Double: true, InjPorts: 2}
	if got := c.name(); got != PaperPointName {
		t.Errorf("derived name %q, constant %q", got, PaperPointName)
	}
	if !strings.HasPrefix(PaperPointName, "x-mesh-cp-cr") {
		t.Errorf("paper point %q should be a checkerboard mesh design", PaperPointName)
	}
}

// TestPaperPointIsThroughputEffective ties the paper point to the Thr.Eff.
// design point: the enumerated candidate builds core.ThroughputEffective's
// config in every field but Name, and is priced at its area.
func TestPaperPointIsThroughputEffective(t *testing.T) {
	cands, err := DefaultGrid().Candidates()
	if err != nil {
		t.Fatal(err)
	}
	i := sort.Search(len(cands), func(i int) bool { return cands[i].Name >= PaperPointName })
	if i == len(cands) || cands[i].Name != PaperPointName {
		t.Fatalf("paper point %s not enumerated", PaperPointName)
	}
	for _, abbr := range []string{"MUM", "BIN"} {
		p, err := workload.ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		got, want := cands[i].Build(p), core.ThroughputEffective(p)
		if got.Name != PaperPointName {
			t.Errorf("paper point builds a config named %q", got.Name)
		}
		got.Name = want.Name
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: paper point builds\n%+v\nwant Thr.Eff.\n%+v", abbr, got, want)
		}
	}
	if te := core.ThroughputEffective(workload.Profile{}).Area(); cands[i].ChipArea != te.Chip() {
		t.Errorf("paper point chip area %v, Thr.Eff. %v", cands[i].ChipArea, te.Chip())
	}
}
