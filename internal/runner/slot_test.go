package runner

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

// slotSequence is a run order that makes each worker slot rebuild across
// network kinds (mesh, double, ideal), topology backends, a hang verdict
// and a shrinking configuration, and back.
func slotSequence(t *testing.T) []core.Config {
	t.Helper()
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.01
	deadlock := core.Baseline(bin).ScaleWork(scale).WithFaults(0.05, 3).WithWatchdog(500)
	deadlock.Noc.Fault.RetxTimeout = 1000
	small := core.Baseline(bin).ScaleWork(scale)
	small.Name += "-small"
	small.Noc.Width, small.Noc.Height = 4, 4
	small.Noc.MCs = noc.TopBottomPlacement(4, 4, 4)
	small.Core.L1.SizeBytes = 8 * 1024
	small.Mem.L2.SizeBytes = 64 * 1024
	small.Workload.Warps = 8
	again := core.Baseline(mum).ScaleWork(scale)
	again.Seed = 100 // another key than the first TB-DOR run
	return []core.Config{
		core.Baseline(mum).ScaleWork(scale),
		core.Perfect(bin).ScaleWork(scale),
		core.ThroughputEffective(mum).ScaleWork(scale),
		core.Ring(mum).ScaleWork(scale),
		core.BaseJump(mum).ScaleWork(scale),
		deadlock,
		small,
		again,
	}
}

// TestPoolSlotsMatchFresh runs the slot sequence through a 2-job pool with
// no entry-point hooks, so every chunk runs on a worker slot. Two
// submitters each send the whole sequence, two seeds a step, as one batch
// at once, so each slot builds the next chunk, whatever its configuration,
// into whatever it ran last unless a collection freed it in between. Every
// outcome must equal a fresh core.Run of its config, verdict included.
func TestPoolSlotsMatchFresh(t *testing.T) {
	p := newPool(t, Options{Jobs: 2})
	seq := slotSequence(t)
	const submitters, seeds = 2, 2
	batches := make([][]core.Config, submitters)
	outs := make([][]Outcome, submitters)
	for sub := range batches {
		for _, cfg := range seq {
			for s := 0; s < seeds; s++ {
				c := cfg
				c.Seed = cfg.Seed + uint64(seeds*sub+s)
				batches[sub] = append(batches[sub], c)
			}
		}
	}
	var wg sync.WaitGroup
	for sub := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[sub] = p.Do(context.Background(), batches[sub]...)
		}()
	}
	wg.Wait()
	for sub, batch := range batches {
		for i, cfg := range batch {
			want, werr := core.Run(context.Background(), cfg)
			got := outs[sub][i]
			if got.Result != want || fmt.Sprint(got.Err) != fmt.Sprint(werr) {
				t.Errorf("%s: pool %+v (%v), fresh %+v (%v)", Key(cfg), got.Result, got.Err, want, werr)
			}
		}
	}
	if got, want := p.Executed(), submitters*seeds*len(seq); got != want {
		t.Errorf("pool executed %d runs, want %d", got, want)
	}
}
