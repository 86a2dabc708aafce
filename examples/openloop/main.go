// Openloop reproduces the shape of the paper's Fig 21: latency versus
// offered load for many-to-few-to-many traffic (1-flit requests from 28
// compute nodes, 4-flit replies from 8 MCs) on the baseline top-bottom
// mesh and on the checkerboard design with 2 MC injection ports, under
// uniform-random and hotspot request patterns.
//
//	go run ./examples/openloop
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func main() {
	// The open loop drives the network alone; the builders' workload is
	// unused.
	var p workload.Profile
	configs := []struct {
		name  string
		build func(workload.Profile) core.Config
	}{
		{"TB-DOR", core.Baseline},
		{"CP-CR-2P", core.ThroughputEffectiveSingle},
	}
	rates := []float64{0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08}

	for _, pattern := range []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot} {
		fmt.Printf("== %s many-to-few-to-many ==\n", pattern)
		fmt.Printf("%-10s", "offered")
		for _, c := range configs {
			fmt.Printf("  %12s", c.name)
		}
		fmt.Println()
		runners := make([]*traffic.Runner, len(configs))
		for i, c := range configs {
			runners[i] = traffic.NewMeshRunner(c.build(p).Noc)
		}
		for _, rate := range rates {
			fmt.Printf("%-10.3f", rate)
			for i := range configs {
				cfg := traffic.DefaultConfig()
				cfg.Pattern = pattern
				cfg.InjectionRate = rate
				cfg.WarmupCycles = 1000
				cfg.MeasureCycles = 4000
				cfg.DrainCycles = 8000
				res := runners[i].Run(cfg)
				mark := ""
				if res.Saturated {
					mark = "*"
				}
				fmt.Printf("  %10.1f%-2s", res.AvgLatency, mark)
			}
			fmt.Println()
		}
		fmt.Println("(* = offered load beyond saturation)")
		fmt.Println()
	}
}
