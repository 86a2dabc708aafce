package experiments

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Shootout compares the three topology backends end to end: the same
// closed-loop system and benchmark set on the baseline mesh, the Wu-style
// bidirectional ring and the BaseJump single-flit mesh, scored by the
// paper's throughput-effectiveness metric — IPC per mm² of die area. The
// mesh buys bisection bandwidth with big 5-port routers; the ring spends
// almost nothing on routers but serializes everything through two links;
// BaseJump pays for 64 B channels but needs only one VC per class and
// 2-flit buffers. The table makes the trade explicit.
func (s *Suite) Shootout() *Report {
	type entry struct {
		name  string
		build func(workload.Profile) core.Config
	}
	entries := []entry{
		{"Mesh (TB-DOR)", core.Baseline},
		{"Ring", core.Ring},
		{"BaseJump", core.BaseJump},
	}
	s.prefetch(core.Baseline, core.Ring, core.BaseJump)

	tb := stats.NewTable("Backend shootout: throughput-effectiveness by topology",
		"backend", "HM IPC", "NoC mm^2", "chip mm^2", "IPC/mm^2 x1000", "vs mesh")

	var summary []string
	var meshTE float64
	for i, e := range entries {
		var ipcs []float64
		for _, p := range s.bench {
			res := s.run(e.build(p))
			if !res.OK() || res.IPC <= 0 {
				continue // DNFs are listed separately; a partial IPC would skew the mean
			}
			ipcs = append(ipcs, res.IPC)
		}
		ipc := stats.HarmonicMean(ipcs)
		na := e.build(s.bench[0]).Area()
		te := area.ThroughputEffectiveness(ipc, na)
		rel := "1.00x"
		if i == 0 {
			meshTE = te
		} else if meshTE > 0 {
			rel = fmt.Sprintf("%.2fx", te/meshTE)
		}
		tb.AddRow(e.name, ipc, na.NoC(), na.Chip(), te*1000, rel)
		summary = append(summary, fmt.Sprintf(
			"%s: HM IPC %.2f over %d/%d benchmarks, NoC %.1f mm^2, IPC/mm^2 %.5f",
			e.name, ipc, len(ipcs), len(s.bench), na.NoC(), te))
	}
	return &Report{
		ID:      "shootout",
		Title:   "IPC per mm^2 across topology backends",
		Table:   tb,
		Summary: summary,
	}
}
