package runner

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// withMaxProcs sets GOMAXPROCS — the planner's core budget, and with the
// pool's Jobs the only input to a lane width — for one test, restoring it
// on cleanup.
func withMaxProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

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

// seedCfgs builds n replicas of one configuration, seeds 1..n.
func seedCfgs(t *testing.T, name string, n int) []core.Config {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = testCfg(t, name)
		cfgs[i].Seed = uint64(i + 1)
	}
	return cfgs
}

// TestDoAllCoalescesLanes pins the coalescing contract: same-config
// different-seed requests chunk into lane batches of the planned width, each
// batch executes once, and every seed keeps its solo cache identity — its
// own Key, its own Outcome carrying that seed's result, and a cache entry a
// later Do serves without re-executing. One slot on a 4-core budget plans
// the 6 seeds 4 wide.
func TestDoAllCoalescesLanes(t *testing.T) {
	withMaxProcs(t, 4)
	rec := &laneBatchRecorder{}
	var soloCalls atomic.Int64
	p := newPool(t, Options{Jobs: 1,
		RunLanes: rec.run,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			soloCalls.Add(1)
			return okRun(ctx, cfg)
		}})
	cfgs := seedCfgs(t, "coalesce", 6)
	outs := p.Do(context.Background(), cfgs...)

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
	if out := doOne(p, cfgs[3]); !out.Cached || out.Result.IPC != float64(cfgs[3].Seed) {
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
	withMaxProcs(t, 4)
	const flaky = uint64(2)
	rec := &laneBatchRecorder{verdict: func(seed uint64) string {
		if seed == flaky {
			return "stall"
		}
		return "ok"
	}}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 1, Retries: 2,
		RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	cfgs := seedCfgs(t, "flaky-lane", 3)
	outs := p.Do(context.Background(), cfgs...)
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
	withMaxProcs(t, 2)
	rec := &laneBatchRecorder{verdict: func(uint64) string { return "stall" }}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 1,
		RunLanes: rec.run,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return okRun(ctx, cfg)
		}})
	outs := p.Do(context.Background(), seedCfgs(t, "stuck-lane", 2)...)
	for i, o := range outs {
		if o.Result.Status != "stall" {
			t.Errorf("outs[%d].Status = %q, want the lane's stall verdict", i, o.Result.Status)
		}
	}
	if len(rec.batches) != 1 {
		t.Errorf("lane batches = %v, want one 2-wide batch", rec.batches)
	}
	if soloRuns.Load() != 0 {
		t.Errorf("solo path ran %d times despite empty retry budget", soloRuns.Load())
	}
}

// TestLaneDuplicateKeysShareOneExecution: a key repeated in one batch
// rides the singleflight — each distinct seed executes exactly once and
// the duplicate is served the same outcome.
func TestLaneDuplicateKeysShareOneExecution(t *testing.T) {
	withMaxProcs(t, 2)
	rec := &laneBatchRecorder{}
	var soloRuns atomic.Int64
	p := newPool(t, Options{Jobs: 2, RunLanes: rec.run,
		Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			soloRuns.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name,
				Status: "ok", IPC: float64(cfg.Seed)}, nil
		}})
	cfgs := seedCfgs(t, "dup", 2)
	a, b := cfgs[0], cfgs[1]
	outs := p.Do(context.Background(), a, b, a)
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
// DNFs with the stack attached, and the rest of the batch survives.
func TestLanePanicIsolation(t *testing.T) {
	withMaxProcs(t, 2)
	p := newPool(t, Options{Jobs: 1,
		RunLanes: func(_ context.Context, _ core.Config, _ []uint64) ([]core.Result, []error) {
			panic("lane kernel exploded")
		},
		Run: okRun})
	outs := p.Do(context.Background(), seedCfgs(t, "lane-boom", 2)...)
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
// durability gate individually — one journal record per seed, keyed like a
// solo run — before publication.
func TestLanePersistGatePerSeed(t *testing.T) {
	withMaxProcs(t, 4)
	rec := &laneBatchRecorder{}
	path := filepath.Join(t.TempDir(), "lanes.jsonl")
	p := newPool(t, Options{Jobs: 1, RunLanes: rec.run, Run: okRun, Checkpoint: path})
	cfgs := seedCfgs(t, "persist-lane", 3)
	p.Do(context.Background(), cfgs...)
	if len(rec.batches) != 1 {
		t.Errorf("lane batches = %v, want one 3-wide batch", rec.batches)
	}
	if p.Records() != 3 {
		t.Errorf("Records = %d, want 3", p.Records())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("journaled %d records, want 3 (one per seed)", len(recs))
	}
	persisted := map[string]Record{}
	for _, r := range recs {
		persisted[r.Key] = r
	}
	for _, cfg := range cfgs {
		r, ok := persisted[Key(cfg)]
		if !ok || r.Result.IPC != float64(cfg.Seed) {
			t.Errorf("seed %d: persisted record %+v missing or wrong", cfg.Seed, r)
		}
	}
}

// TestLaneWidthBelowTwoStaysSolo: on a 1-core host the planner degrades to
// width 1, and a width-1 chunk never touches the lane entry point.
func TestLaneWidthBelowTwoStaysSolo(t *testing.T) {
	withMaxProcs(t, 1)
	var laneCalls atomic.Int64
	p := newPool(t, Options{Jobs: 2,
		RunLanes: func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
			laneCalls.Add(1)
			return make([]core.Result, len(seeds)), make([]error, len(seeds))
		},
		Run: okRun})
	outs := p.Do(context.Background(), seedCfgs(t, "solo-width", 3)...)
	if laneCalls.Load() != 0 {
		t.Errorf("lane entry point called %d times at width 1", laneCalls.Load())
	}
	for i, o := range outs {
		if !o.OK() {
			t.Errorf("outs[%d].Status = %q, want ok", i, o.Result.Status)
		}
	}
}

// publishEffects is everything a batch leaves behind: the outcomes Do
// returned, the pool's cache, the journal, the executed count and the OnDone
// stream (journal and OnDone sorted: solo chunks race each other).
type publishEffects struct {
	Outs, Cache, Journal, OnDone []string
	Executed                     int
	LaneCalls                    int
}

func renderOutcome(o Outcome) string {
	return fmt.Sprintf("%s %s a%d cached=%v resumed=%v", o.Key, o.Result.Status, o.Attempts, o.Cached, o.Resumed)
}

// publishCase is one row of TestPublishPipelineShared. verdict returns a
// seed's status; "" blocks the run until its context dies. cancel names
// the context to cancel once every chunk's run has started, so both keys
// are claimed.
type publishCase struct {
	name        string
	retries     int
	verdict     func(seed uint64) string
	persistFail bool
	cancel      string // "", "call" or "pool"

	wantTarget   string // status and attempts of seed 1's outcome
	wantCached   bool
	wantJournal  bool
	wantExecuted int
}

// runPublishCase submits seeds 1 and 2 of one configuration. With lanes
// false the plan cuts two solo chunks (1-core budget) running on two slots;
// with lanes true one 2-wide lane chunk (2-core budget, one slot).
func runPublishCase(t *testing.T, tc publishCase, lanes bool) publishEffects {
	maxprocs, jobs := 1, 2
	if lanes {
		maxprocs, jobs = 2, 1
	}
	withMaxProcs(t, maxprocs)
	cfgs := seedCfgs(t, "publish", 2)
	target := Key(cfgs[0])
	path := filepath.Join(t.TempDir(), "publish.jsonl")
	poolCtx, stopPool := context.WithCancel(context.Background())
	defer stopPool()
	callCtx, stopCall := context.WithCancel(context.Background())
	defer stopCall()

	started := make(chan struct{}, 2) // one send per seed at most
	verdict := func(ctx context.Context, cfg core.Config, seed uint64) core.Result {
		status := tc.verdict(seed)
		if status == "" {
			started <- struct{}{}
			<-ctx.Done()
			status = "canceled"
		}
		return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: status, IPC: float64(seed)}
	}
	var mu sync.Mutex
	var eff publishEffects
	opts := Options{Jobs: jobs, Retries: tc.retries, Backoff: time.Millisecond, Checkpoint: path,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			return verdict(ctx, cfg, cfg.Seed), nil
		},
		RunLanes: func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
			mu.Lock()
			eff.LaneCalls++
			mu.Unlock()
			results := make([]core.Result, len(seeds))
			for i, s := range seeds {
				results[i] = verdict(ctx, cfg, s)
			}
			return results, make([]error, len(seeds))
		},
		OnDone: func(o Outcome) {
			mu.Lock()
			eff.OnDone = append(eff.OnDone, renderOutcome(o))
			mu.Unlock()
		},
	}
	if tc.persistFail {
		opts.FS = failWritesOf(target)
	}
	p, err := New(poolCtx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tc.cancel != "" {
		go func() {
			// Each solo chunk starts its own run; the lane chunk's first
			// lane starts after claiming both keys.
			for i := 0; i < jobs; i++ {
				<-started
			}
			if tc.cancel == "call" {
				stopCall()
			} else {
				stopPool()
			}
		}()
	}
	for _, o := range p.Do(callCtx, cfgs...) {
		eff.Outs = append(eff.Outs, renderOutcome(o))
	}
	for _, o := range p.Outcomes() {
		eff.Cache = append(eff.Cache, renderOutcome(o))
	}
	eff.Executed = p.Executed()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		eff.Journal = append(eff.Journal, fmt.Sprintf("%s %s a%d", r.Key, r.Result.Status, r.Attempts))
	}
	sort.Strings(eff.Journal)
	sort.Strings(eff.OnDone)
	return eff
}

// TestPublishPipelineShared drives each publication case through a solo
// chunk and a lane chunk and demands identical cache, journal, Executed(),
// OnDone and Outcome effects: there is one publish pipeline, whatever the
// chunk width.
func TestPublishPipelineShared(t *testing.T) {
	ok := func(uint64) string { return "ok" }
	block := func(uint64) string { return "" }
	cases := []publishCase{
		{name: "ok", verdict: ok,
			wantTarget: "ok a1", wantCached: true, wantJournal: true, wantExecuted: 2},
		// The lane spends one attempt, is left unpublished, and falls back
		// to the solo loop with its full budget: 1 + 2 retries.
		{name: "retryable-stall", retries: 2,
			verdict: func(seed uint64) string {
				if seed == 1 {
					return "stall"
				}
				return "ok"
			},
			wantTarget: "stall a3", wantCached: true, wantJournal: true, wantExecuted: 2},
		{name: "persist-failure", verdict: ok, persistFail: true,
			wantTarget: "io_error a1", wantExecuted: 2},
		{name: "call-cancel", verdict: block, cancel: "call",
			wantTarget: "canceled a1", wantExecuted: 0},
		{name: "pool-cancel", verdict: block, cancel: "pool",
			wantTarget: "canceled a1", wantCached: true, wantExecuted: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			solo := runPublishCase(t, tc, false)
			lane := runPublishCase(t, tc, true)
			if solo.LaneCalls != 0 || lane.LaneCalls != 1 {
				t.Fatalf("lane calls solo=%d lane=%d, want 0 and 1", solo.LaneCalls, lane.LaneCalls)
			}
			solo.LaneCalls, lane.LaneCalls = 0, 0
			if !reflect.DeepEqual(solo, lane) {
				t.Errorf("solo and lane chunks published differently:\nsolo %+v\nlane %+v", solo, lane)
			}
			target := "publish|MUM|s1|"
			if len(lane.Outs) != 2 || !strings.HasPrefix(lane.Outs[0], target) ||
				!strings.Contains(lane.Outs[0], " "+tc.wantTarget+" cached=false") {
				t.Errorf("seed 1 outcome = %v, want %q", lane.Outs, tc.wantTarget)
			}
			has := func(list []string) bool {
				for _, s := range list {
					if strings.HasPrefix(s, target) {
						return true
					}
				}
				return false
			}
			if has(lane.Cache) != tc.wantCached {
				t.Errorf("seed 1 cached = %v, want %v (cache %v)", has(lane.Cache), tc.wantCached, lane.Cache)
			}
			if has(lane.Journal) != tc.wantJournal {
				t.Errorf("seed 1 journaled = %v, want %v (journal %v)", has(lane.Journal), tc.wantJournal, lane.Journal)
			}
			if lane.Executed != tc.wantExecuted {
				t.Errorf("Executed() = %d, want %d", lane.Executed, tc.wantExecuted)
			}
			if len(lane.OnDone) != 2 {
				t.Errorf("OnDone fired %d times, want once per seed: %v", len(lane.OnDone), lane.OnDone)
			}
		})
	}
}
