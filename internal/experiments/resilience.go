package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// resilienceRates is the fault-rate sweep: clean, then three decades up to
// one corrupted-flit chance per hundred link traversals.
var resilienceRates = []float64{0, 1e-4, 1e-3, 1e-2}

// resilienceBench picks one light (LL) and one heavy (HH) benchmark from the
// suite's set, so the sweep covers both a latency-sensitive and a
// bandwidth-saturated workload without running all 31 benchmarks four times.
func (s *Suite) resilienceBench() []workload.Profile {
	var out []workload.Profile
	for _, class := range []string{"LL", "HH"} {
		for _, p := range s.bench {
			if p.Class == class {
				out = append(out, p)
				break
			}
		}
	}
	if len(out) == 0 {
		n := len(s.bench)
		if n > 2 {
			n = 2
		}
		out = s.bench[:n]
	}
	return out
}

// faultyCfg enables the injector at rate with the sweep's fixed seed. A
// tight retransmission deadline keeps recovery fast relative to the
// scaled-down kernels used in sweeps.
func faultyCfg(cfg core.Config, rate float64) core.Config {
	cfg = cfg.WithFaults(rate, 13)
	cfg.Noc.Fault.RetxTimeout = 512
	return cfg
}

// collapseSeeds averages a sweep point's seed replicas into one
// representative result. A single replica — the suite default — passes
// through untouched, so single-seed tables keep their exact bytes. With
// replicas, IPC and the fault counters become means over the replicas that
// finished; Status stays "ok" only when every replica finished and
// otherwise reports the degraded fraction with the first verdict, so a
// partially-degraded point reads as missing data instead of a polluted
// mean.
func collapseSeeds(runs []core.Result) core.Result {
	if len(runs) == 1 {
		return runs[0]
	}
	agg := runs[0]
	var ok int
	var ipc, retries float64
	var retx, dropped uint64
	var firstBad string
	for _, r := range runs {
		if !r.OK() {
			if firstBad == "" {
				firstBad = r.Status
			}
			continue
		}
		ok++
		ipc += r.IPC
		retries += r.AvgRetries
		retx += r.RetxPackets
		dropped += r.DroppedPackets
	}
	if ok == 0 {
		return agg // every replica degraded: report the first as-is
	}
	agg.IPC = ipc / float64(ok)
	agg.AvgRetries = retries / float64(ok)
	agg.RetxPackets = retx / uint64(ok)
	agg.DroppedPackets = dropped / uint64(ok)
	if ok == len(runs) {
		agg.Status = core.StatusOK
	} else {
		agg.Status = fmt.Sprintf("%d/%d %s", len(runs)-ok, len(runs), firstBad)
	}
	return agg
}

// Resilience is this repository's robustness experiment (not in the paper):
// it sweeps the network fault injector's master rate and reports how much
// application throughput the end-to-end retransmission layer retains, for
// the baseline mesh and the checkerboard design. Runs that wedge or hit the
// cycle cap appear as DNF rows with their degradation status instead of
// aborting the sweep.
func (s *Suite) Resilience() *Report {
	tb := stats.NewTable("Resilience: IPC retention under injected network faults",
		"bench", "config", "fault rate", "IPC", "rel IPC", "retx pkts", "dropped", "avg retries", "status")

	configs := []string{"TB-DOR", "CP-CR"}
	bench := s.resilienceBench()
	worstRate := resilienceRates[len(resilienceRates)-1]

	// Warm the full (config × benchmark × fault-rate × seed) grid through
	// the sweep planner: each point's seed replicas differ only in Seed,
	// so they coalesce into one lane batch.
	var cfgs []core.Config
	for _, name := range configs {
		mk := builder(name)
		for _, p := range bench {
			cfgs = append(cfgs, s.seedReplicas(mk(p))...)
			for _, rate := range resilienceRates {
				if rate > 0 {
					cfgs = append(cfgs, s.seedReplicas(faultyCfg(mk(p), rate))...)
				}
			}
		}
	}
	s.runAll(cfgs)

	var summary []string
	for _, name := range configs {
		mk := builder(name)
		var retained []float64
		for _, p := range bench {
			base := collapseSeeds(s.runSeeds(mk(p)))
			for _, rate := range resilienceRates {
				r := base
				if rate > 0 {
					r = collapseSeeds(s.runSeeds(faultyCfg(mk(p), rate)))
				}
				rel := "-"
				if r.OK() && base.OK() && base.IPC > 0 {
					frac := r.IPC / base.IPC
					rel = fmt.Sprintf("%.3f", frac)
					if rate == worstRate {
						retained = append(retained, frac)
					}
				}
				status := r.Status
				if status == "" {
					status = core.StatusOK
				}
				tb.AddRow(p.Abbr, name, fmt.Sprintf("%g", rate), r.IPC, rel,
					r.RetxPackets, r.DroppedPackets, fmt.Sprintf("%.3f", r.AvgRetries), status)
			}
		}
		if len(retained) > 0 {
			summary = append(summary, fmt.Sprintf(
				"%s retains %.1f%% of fault-free IPC at fault rate %g (hmean of %d benchmarks)",
				name, 100*stats.HarmonicMean(retained), worstRate, len(retained)))
		} else {
			summary = append(summary, fmt.Sprintf(
				"%s: no benchmark finished at fault rate %g (see DNF rows)", name, worstRate))
		}
	}
	if dnf := s.DNF(); len(dnf) > 0 {
		summary = append(summary, fmt.Sprintf("%d run(s) did not finish: %v", len(dnf), dnf))
	} else {
		summary = append(summary, "all faulty runs recovered: no deadlock, cycle-cap or other DNFs")
	}
	return &Report{
		ID:      "resilience",
		Title:   "IPC degradation vs injected fault rate (end-to-end retransmission active)",
		Table:   tb,
		Summary: summary,
	}
}
