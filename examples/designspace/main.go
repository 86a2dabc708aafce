// Designspace reproduces the shape of the paper's Fig 2: the
// throughput-effective design space. For a mix of Table I benchmarks it
// places the designs on the (average IPC, 1/area) plane: the balanced
// baseline mesh, the naive 2x-bandwidth mesh, the combined
// throughput-effective NoC, the alternative topology backends (Wu-style
// ring, BaseJump single-flit mesh), and the ideal (zero-area,
// infinite-bandwidth) network.
//
//	go run ./examples/designspace
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	// A representative subset (one LL, two LH, three HH) keeps the example
	// fast; use cmd/experiments fig2 for all 31 benchmarks.
	var profiles []workload.Profile
	for _, abbr := range []string{"HIS", "CON", "BLK", "MUM", "FWT", "RD"} {
		p, err := workload.ByAbbr(abbr)
		if err != nil {
			panic(err)
		}
		profiles = append(profiles, p)
	}

	designs := []struct {
		name  string
		build func(workload.Profile) core.Config
	}{
		{"Balanced Mesh", core.Baseline},
		{"2x BW", func(p workload.Profile) core.Config { return core.Baseline(p).With2xBW() }},
		{"Thr. Eff.", core.ThroughputEffective},
		{"Thr. Eff. (1net)", core.ThroughputEffectiveSingle},
		{"Ring", core.Ring},
		{"BaseJump", core.BaseJump},
		{"Ideal NoC", core.Perfect},
	}

	fmt.Printf("%-17s %10s %12s %14s %16s\n",
		"design", "avg IPC", "chip mm^2", "1/mm^2 (x1e3)", "IPC/mm^2 (x1e3)")
	var baseEff float64
	for _, d := range designs {
		var ipcs []float64
		for _, p := range profiles {
			ipcs = append(ipcs, core.MustRun(d.build(p).ScaleWork(0.4)).IPC)
		}
		avg := stats.ArithmeticMean(ipcs)
		chip := d.build(profiles[0]).Area().Chip()
		eff := avg / chip
		if baseEff == 0 {
			baseEff = eff
		}
		fmt.Printf("%-17s %10.1f %12.1f %14.4f %16.3f   (%+.1f%% vs baseline)\n",
			d.name, avg, chip, 1e3/chip, 1e3*eff, 100*(eff/baseEff-1))
	}
	fmt.Println("\nCurves of constant IPC/mm^2 run diagonally in Fig 2; designs to the")
	fmt.Println("upper-right are more throughput-effective.")
}
