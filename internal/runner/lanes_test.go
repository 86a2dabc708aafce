package runner

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// laneBatchRecorder is a LaneRunFunc that records every batch it executes
// and returns per-seed results through verdict (defaulting to "ok"). IPC
// carries the seed so tests can check each outcome landed on its own key.
type laneBatchRecorder struct {
	mu      sync.Mutex
	batches [][]uint64
	verdict func(seed uint64) string
}

func (r *laneBatchRecorder) run(_ context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
	r.mu.Lock()
	r.batches = append(r.batches, append([]uint64(nil), seeds...))
	r.mu.Unlock()
	results := make([]core.Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, s := range seeds {
		status := "ok"
		if r.verdict != nil {
			status = r.verdict(s)
		}
		results[i] = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
			Status: status, IPC: float64(s)}
	}
	return results, errs
}

// TestDoAllCoalescesLanes pins the coalescing contract: same-config
// different-seed requests chunk into lane batches of Options.Lanes, each
// batch executes once, and every seed keeps its solo cache identity — its
// own Key, its own Outcome carrying that seed's result, and a cache entry a
// later Do serves without re-executing.
func TestDoAllCoalescesLanes(t *testing.T) {
	rec := &laneBatchRecorder{}
	var soloCalls atomic.Int64
	p := newPool(t, Options{Jobs: 2, Lanes: 4,
		RunLanes: rec.run,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			soloCalls.Add(1)
			return okRun(ctx, cfg)
		}})
	base := testCfg(t, "coalesce")
	var cfgs []core.Config
	for s := uint64(1); s <= 6; s++ {
		cfg := base
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	outs := p.DoAll(cfgs)

	if n := soloCalls.Load(); n != 0 {
		t.Errorf("solo path executed %d times; every seed should ride a lane batch", n)
	}
	if len(rec.batches) != 2 || len(rec.batches[0])+len(rec.batches[1]) != 6 {
		t.Fatalf("6 seeds at width 4 ran as batches %v, want one of 4 and one of 2", rec.batches)
	}
	for i, o := range outs {
		if want := Key(cfgs[i]); o.Key != want {
			t.Errorf("outs[%d].Key = %q, want per-seed key %q", i, o.Key, want)
		}
		if !o.OK() || o.Result.IPC != float64(cfgs[i].Seed) {
			t.Errorf("outs[%d] = %+v, want ok result carrying seed %d", i, o.Result, cfgs[i].Seed)
		}
		if o.Attempts != 1 || o.Cached {
			t.Errorf("outs[%d]: attempts=%d cached=%v, want fresh single-attempt run", i, o.Attempts, o.Cached)
		}
	}
	if p.Executed() != 6 {
		t.Errorf("Executed() = %d, want 6 (one per seed, not per batch)", p.Executed())
	}
	// Lane batching must be invisible to the cache: a repeat request for any
	// seed is a hit, no third batch.
	if out := p.Do(cfgs[3]); !out.Cached || out.Result.IPC != float64(cfgs[3].Seed) {
		t.Errorf("repeat request = %+v, want cache hit with that seed's result", out)
	}
	if len(rec.batches) != 2 {
		t.Errorf("repeat request grew batches to %d", len(rec.batches))
	}
}

// TestLaneRetryableFallsBackToSolo pins the retry contract: a lane whose
// verdict is transient-retryable is not published — the seed re-executes
// through the solo path with its full retry budget — while its batch
// siblings keep their lane results without re-execution.
func TestLaneRetryableFallsBackToSolo(t *testing.T) {
	const flaky = uint64(2)
	rec := &laneBatchRecorder{verdict: func(seed uint64) string {
		if seed == flaky {
			return "stall"
		}
		return "ok"
	}}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 2, Lanes: 3, Retries: 2,
		RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	var cfgs []core.Config
	for s := uint64(1); s <= 3; s++ {
		cfg := testCfg(t, "flaky-lane")
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	outs := p.DoAll(cfgs)
	for i, o := range outs {
		if !o.OK() || o.Result.IPC != float64(cfgs[i].Seed) {
			t.Errorf("outs[%d] = %+v, want ok with seed %d", i, o.Result, cfgs[i].Seed)
		}
	}
	if n := soloRuns.Load(); n != 1 {
		t.Errorf("solo path executed %d times, want exactly 1 (the stalled lane)", n)
	}
	if len(rec.batches) != 1 {
		t.Errorf("lane batches = %v, want the single original chunk", rec.batches)
	}
}

// TestLaneRetryableTerminalWithoutRetries: with no retry budget a stalled
// lane's DNF is terminal — published as-is, no solo re-execution — matching
// what solo execution would have recorded.
func TestLaneRetryableTerminalWithoutRetries(t *testing.T) {
	rec := &laneBatchRecorder{verdict: func(uint64) string { return "stall" }}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 1, Lanes: 2,
		RunLanes: rec.run,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return okRun(ctx, cfg)
		}})
	var cfgs []core.Config
	for s := uint64(1); s <= 2; s++ {
		cfg := testCfg(t, "stuck-lane")
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	outs := p.DoAll(cfgs)
	for i, o := range outs {
		if o.Result.Status != "stall" {
			t.Errorf("outs[%d].Status = %q, want the lane's stall verdict", i, o.Result.Status)
		}
	}
	if soloRuns.Load() != 0 {
		t.Errorf("solo path ran %d times despite empty retry budget", soloRuns.Load())
	}
}

// TestLaneDuplicateKeysShareOneExecution: duplicate seeds in one DoAll ride
// the singleflight. Whichever path claims the key first (the duplicate goes
// solo and races the chunk), each distinct seed executes exactly once and
// the duplicate is served the same outcome.
func TestLaneDuplicateKeysShareOneExecution(t *testing.T) {
	rec := &laneBatchRecorder{}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 2, Lanes: 2, RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	a := testCfg(t, "dup")
	a.Seed = 1
	b := testCfg(t, "dup")
	b.Seed = 2
	outs := p.DoAll([]core.Config{a, b, a})
	batched := 0
	for _, batch := range rec.batches {
		batched += len(batch)
	}
	if total := batched + int(soloRuns.Load()); total != 2 {
		t.Errorf("executed %d seed-runs (%d batched, %d solo), want 2 (duplicate must not re-execute)",
			total, batched, soloRuns.Load())
	}
	if outs[0].Key != outs[2].Key || outs[0].Result.IPC != outs[2].Result.IPC {
		t.Errorf("duplicate outcome diverged: %+v vs %+v", outs[0], outs[2])
	}
	if p.Executed() != 2 {
		t.Errorf("Executed() = %d, want 2", p.Executed())
	}
}

// TestLanePanicIsolation: a panicking lane batch becomes per-seed "panic"
// DNFs with the stack attached, and the rest of the DoAll survives.
func TestLanePanicIsolation(t *testing.T) {
	p := newPool(t, Options{Jobs: 2, Lanes: 2,
		RunLanes: func(_ context.Context, _ core.Config, _ []uint64) ([]core.Result, []error) {
			panic("lane kernel exploded")
		},
		Run: okRun})
	var cfgs []core.Config
	for s := uint64(1); s <= 2; s++ {
		cfg := testCfg(t, "lane-boom")
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	outs := p.DoAll(cfgs)
	for i, o := range outs {
		if o.Result.Status != "panic" {
			t.Errorf("outs[%d].Status = %q, want panic", i, o.Result.Status)
		}
		if !strings.Contains(o.Stack, "goroutine") {
			t.Errorf("outs[%d] missing panic stack", i)
		}
		if o.Err == nil || !strings.Contains(o.Err.Error(), "lane kernel exploded") {
			t.Errorf("outs[%d].Err = %v, want the panic message", i, o.Err)
		}
	}
}

// TestLanePersistGatePerSeed: every lane outcome passes through the
// durability gate individually — one Persist record per seed, keyed like a
// solo run — before publication.
func TestLanePersistGatePerSeed(t *testing.T) {
	rec := &laneBatchRecorder{}
	var mu sync.Mutex
	persisted := map[string]Record{}
	p := newPool(t, Options{Jobs: 1, Lanes: 3, RunLanes: rec.run, Run: okRun,
		Persist: func(r Record) error {
			mu.Lock()
			persisted[r.Key] = r
			mu.Unlock()
			return nil
		}})
	var cfgs []core.Config
	for s := uint64(1); s <= 3; s++ {
		cfg := testCfg(t, "persist-lane")
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	p.DoAll(cfgs)
	if len(persisted) != 3 {
		t.Fatalf("persisted %d records, want 3 (one per seed)", len(persisted))
	}
	for _, cfg := range cfgs {
		r, ok := persisted[Key(cfg)]
		if !ok || r.Result.IPC != float64(cfg.Seed) {
			t.Errorf("seed %d: persisted record %+v missing or wrong", cfg.Seed, r)
		}
	}
}

// TestLaneWidthBelowTwoStaysSolo: Lanes 0/1 (and a leftover chunk of one)
// never touch the lane entry point.
func TestLaneWidthBelowTwoStaysSolo(t *testing.T) {
	var laneCalls atomic.Int64
	p := newPool(t, Options{Jobs: 2, Lanes: 1,
		RunLanes: func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
			laneCalls.Add(1)
			return make([]core.Result, len(seeds)), make([]error, len(seeds))
		},
		Run: okRun})
	var cfgs []core.Config
	for s := uint64(1); s <= 3; s++ {
		cfg := testCfg(t, "solo-width")
		cfg.Seed = s
		cfgs = append(cfgs, cfg)
	}
	outs := p.DoAll(cfgs)
	if laneCalls.Load() != 0 {
		t.Errorf("lane entry point called %d times at width 1", laneCalls.Load())
	}
	for i, o := range outs {
		if !o.OK() {
			t.Errorf("outs[%d].Status = %q, want ok", i, o.Result.Status)
		}
	}
}
