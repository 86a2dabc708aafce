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

// table lists the experiments "all" expands to, in paper order, each with
// the method that builds its report. The design-space exploration
// ("explore") is deliberately not among them: it runs every candidate of
// the default grid at full length, which dwarfs any single figure, so it
// only runs when invoked by name.
var table = []struct {
	id  string
	run func(*Suite) *Report
}{
	{"fig2", (*Suite).Fig2},
	{"fig6", (*Suite).Fig6},
	{"fig7", (*Suite).Fig7},
	{"fig8", (*Suite).Fig8},
	{"fig9", (*Suite).Fig9},
	{"fig10", (*Suite).Fig10},
	{"fig11", (*Suite).Fig11},
	{"fig16", (*Suite).Fig16},
	{"fig17", (*Suite).Fig17},
	{"fig18", (*Suite).Fig18},
	{"fig19", (*Suite).Fig19},
	{"fig20", (*Suite).Fig20},
	{"fig21", (*Suite).Fig21},
	{"table6", (*Suite).Table6},
	{"headline", (*Suite).Headline},
	{"ablation", (*Suite).Ablations},
	{"resilience", (*Suite).Resilience},
	{"shootout", (*Suite).Shootout},
}

// ByID returns the report for one experiment id (e.g. "fig7", "table6").
func (s *Suite) ByID(id string) (*Report, error) {
	if id == "explore" {
		return s.Explore()
	}
	for _, e := range table {
		if e.id == id {
			return e.run(s), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers "all" expands to, in paper order.
func IDs() []string {
	ids := make([]string, len(table))
	for i, e := range table {
		ids[i] = e.id
	}
	return ids
}
