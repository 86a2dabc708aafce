package main

import (
	"context"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// sweepLanes is the `experiments -seeds` path: a planned multi-seed sweep
// through a 2-slot pool with a fsynced journal on the real filesystem, then
// a second pool that must serve the whole sweep from that journal.
type sweepLanes struct {
	cfgs []core.Config
}

const sweepJobs = 2

func newSweepLanes(e *env) *sweepLanes {
	scale, benches, seeds := 0.05, []string{"BIN", "CON", "RAY", "AES", "LIB", "FWT"}, uint64(4)
	points := []func(core.Config) core.Config{
		func(c core.Config) core.Config { return c },
		core.Config.WithCheckerboardRouting,
	}
	if e.small {
		scale, benches, points = closedSmallScale, benches[:1], points[:1]
	}
	w := &sweepLanes{}
	for _, abbr := range benches {
		for _, point := range points {
			for s := uint64(0); s < seeds; s++ {
				c := point(core.Baseline(mustProfile(abbr))).ScaleWork(scale)
				c.Seed = e.seed + s
				w.cfgs = append(w.cfgs, c)
			}
		}
	}
	return w
}

func (w *sweepLanes) pool(e *env, path string, resume bool) (*runner.Pool, error) {
	return runner.New(context.Background(), runner.Options{
		Jobs:       sweepJobs,
		Checkpoint: path,
		Resume:     resume,
		FS:         e.tr.fs(),
		Run:        e.tr.runHook("runner.kernel"),
		RunLanes:   e.tr.laneHook("runner.kernel"),
	})
}

func (w *sweepLanes) setup(e *env) error {
	path := e.tempPath("sweep-setup.checkpoint.jsonl")
	defer os.Remove(path)
	p, err := w.pool(e, path, false)
	if err != nil {
		return err
	}
	if err := buildSystems(w.cfgs); err != nil { // the lane kernel builds one per run
		p.Close()
		return err
	}
	return p.Close()
}

func (w *sweepLanes) pass(e *env) passStats {
	var ps passStats
	ctx := context.Background()
	path := e.tempPath("sweep.checkpoint.jsonl")
	defer os.Remove(path)

	if e.tr != nil { // the planner's own cost, outside the timed phase
		pl := runner.Planner{Jobs: sweepJobs}
		id := e.tr.begin("runner.plan", "", 0)
		pl.Plan(w.cfgs)
		e.tr.end(id)
	}

	start := time.Now()
	fresh, err := w.pool(e, path, false)
	if err != nil {
		e.chk.check(false, "sweep: runner.New: %v", err)
		return ps
	}
	id := e.tr.begin("runner.submit", "", 0)
	e.tr.setRoot(id)
	outs := fresh.DoAllPlanned(ctx, w.cfgs)
	e.tr.end(id)
	e.chk.check(fresh.Executed() == len(w.cfgs), "sweep: fresh pool executed %d of %d", fresh.Executed(), len(w.cfgs))
	err = fresh.Close()
	e.chk.check(err == nil, "sweep: closing the fresh pool: %v", err)

	id = e.tr.begin("runner.resume", "", 0)
	e.tr.setRoot(id)
	resumed, err := w.pool(e, path, true)
	if err != nil {
		e.chk.check(false, "sweep: resume runner.New: %v", err)
		return ps
	}
	again := resumed.DoAllPlanned(ctx, w.cfgs)
	executed := resumed.Executed()
	err = resumed.Close()
	e.tr.end(id)
	e.tr.setRoot(0)
	ps.wall = time.Since(start)
	e.chk.check(err == nil, "sweep: closing the resumed pool: %v", err)

	for i, out := range outs {
		ps.addRun(e, w.cfgs[i], out.Result)
	}
	checkClosedResults(e.chk, w.cfgs, ps.results)
	checkResume(e.chk, outs, again, executed)
	return ps
}

// checkResume requires the resumed sweep to be the fresh one, served from
// the journal without executing anything.
func checkResume(chk *checker, fresh, resumed []runner.Outcome, executed int) {
	chk.check(executed == 0, "sweep: resumed pool executed %d runs, want 0", executed)
	chk.check(len(resumed) == len(fresh), "sweep: resumed %d outcomes, fresh %d", len(resumed), len(fresh))
	for i := range fresh {
		if i >= len(resumed) {
			break
		}
		same := resumed[i].Key == fresh[i].Key && resumed[i].Result == fresh[i].Result && resumed[i].Resumed
		chk.check(same, "sweep: resumed outcome %s differs from the fresh one: %+v vs %+v",
			fresh[i].Key, resumed[i].Result, fresh[i].Result)
	}
}

// verify reruns one sampled config solo: the lane-batched result must be
// identical to core.Run of its seed.
func (w *sweepLanes) verify(e *env, ref passStats) {
	if len(ref.results) != len(w.cfgs) {
		return
	}
	i := int(e.seed % uint64(len(w.cfgs)))
	solo, err := core.Run(context.Background(), w.cfgs[i])
	e.chk.check(err == nil && solo == ref.results[i], "sweep: %s lane-batched %+v, solo %+v (%v)",
		runner.Key(w.cfgs[i]), ref.results[i], solo, err)
}
