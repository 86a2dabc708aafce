package experiments

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table6 regenerates the area table (paper Table VI) from the analytic
// ORION-fitted model.
func (s *Suite) Table6() *Report {
	tb := stats.NewTable("Table VI: area estimations (mm^2, 65nm)",
		"config", "router area sum", "link area sum", "NoC overhead", "total chip")

	rows := []struct {
		name  string
		build func(workload.Profile) core.Config
		paper [2]float64 // router sum, chip
	}{
		{"Baseline", core.Baseline, [2]float64{69.00, 576}},
		{"2x-BW", builder("2x-TB-DOR"), [2]float64{263.0, 790.9}},
		{"CP-CR", builder("CP-CR"), [2]float64{59.20, 566.2}},
		{"Double CP-CR", builder("Double-CP-CR"), [2]float64{29.74, 536.74}},
		{"Double CP-CR 2P", core.ThroughputEffective, [2]float64{30.44, 537.44}},
	}
	var summary []string
	for _, r := range rows {
		a := r.build(s.bench[0]).Area()
		overhead := a.NoC() / area.ChipAreaMM2
		tb.AddRow(r.name, a.Routers, a.Links, fmt.Sprintf("%.1f%%", 100*overhead), a.Chip())
		summary = append(summary, fmt.Sprintf(
			"%s: router sum paper %.1f / measured %.1f; chip paper %.1f / measured %.1f",
			r.name, r.paper[0], a.Routers, r.paper[1], a.Chip()))
	}
	return &Report{
		ID:      "table6",
		Title:   "Router and link area by configuration",
		Table:   tb,
		Summary: summary,
	}
}

// All runs every experiment in paper order.
func (s *Suite) All() []*Report {
	return []*Report{
		s.Fig2(), s.Fig6(), s.Fig7(), s.Fig8(), s.Fig9(), s.Fig10(), s.Fig11(),
		s.Fig16(), s.Fig17(), s.Fig18(), s.Fig19(), s.Fig20(), s.Fig21(),
		s.Table6(), s.Headline(),
	}
}

// ByID returns the report for one experiment id (e.g. "fig7", "table6").
func (s *Suite) ByID(id string) (*Report, error) {
	switch id {
	case "fig2":
		return s.Fig2(), nil
	case "fig6":
		return s.Fig6(), nil
	case "fig7":
		return s.Fig7(), nil
	case "fig8":
		return s.Fig8(), nil
	case "fig9":
		return s.Fig9(), nil
	case "fig10":
		return s.Fig10(), nil
	case "fig11":
		return s.Fig11(), nil
	case "fig16":
		return s.Fig16(), nil
	case "fig17":
		return s.Fig17(), nil
	case "fig18":
		return s.Fig18(), nil
	case "fig19":
		return s.Fig19(), nil
	case "fig20":
		return s.Fig20(), nil
	case "fig21":
		return s.Fig21(), nil
	case "table6":
		return s.Table6(), nil
	case "headline":
		return s.Headline(), nil
	case "ablation":
		return s.Ablations(), nil
	case "resilience":
		return s.Resilience(), nil
	case "shootout":
		return s.Shootout(), nil
	case "explore":
		return s.Explore()
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers "all" expands to, in paper order.
// The design-space exploration ("explore") is deliberately not among them:
// it sweeps the whole default grid through successive-halving rungs, which
// dwarfs any single figure, so it only runs when invoked by name.
func IDs() []string {
	return []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "table6", "headline",
		"ablation", "resilience", "shootout"}
}
