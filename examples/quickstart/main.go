// Quickstart: run one memory-bound Table I benchmark (MUMmerGPU) on the
// paper's baseline mesh and on the combined throughput-effective NoC, and
// compare application throughput and throughput per unit area.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	profile, err := workload.ByAbbr("MUM")
	if err != nil {
		panic(err)
	}

	// The kernel is shortened so the example finishes in a few seconds;
	// drop ScaleWork for full-length runs.
	baseline := core.Baseline(profile).ScaleWork(0.4)
	thrEff := core.ThroughputEffective(profile).ScaleWork(0.4)             // paper-exact (sliced)
	thrEffSingle := core.ThroughputEffectiveSingle(profile).ScaleWork(0.4) // single-network variant

	baseRes := core.MustRun(baseline)
	teRes := core.MustRun(thrEff)
	te1Res := core.MustRun(thrEffSingle)

	baseArea := baseline.Area()
	teArea := thrEff.Area()
	te1Area := thrEffSingle.Area()

	fmt.Printf("benchmark: %s (%s)\n\n", profile.Name, profile.Abbr)
	fmt.Printf("%-28s %10s %12s %12s\n", "config", "IPC", "chip mm^2", "IPC/mm^2")
	row := func(name string, ipc, chip float64) {
		fmt.Printf("%-28s %10.1f %12.1f %12.4f\n", name, ipc, chip, ipc/chip)
	}
	row(baseRes.Config, baseRes.IPC, baseArea.Chip())
	row(teRes.Config, teRes.IPC, teArea.Chip())
	row(te1Res.Config, te1Res.IPC, te1Area.Chip())

	gain := (te1Res.IPC / te1Area.Chip()) / (baseRes.IPC / baseArea.Chip())
	fmt.Printf("\nthroughput-effectiveness gain (single-net variant): %+.1f%%\n", 100*(gain-1))
	fmt.Printf("baseline MC reply-path stall:  %.0f%% of cycles\n", 100*baseRes.MCStallFraction)
	fmt.Printf("thr-eff  MC reply-path stall:  %.0f%% of cycles\n", 100*te1Res.MCStallFraction)
}
