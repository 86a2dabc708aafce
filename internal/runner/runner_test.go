package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// testCfg builds a distinct config without needing a real simulation.
func testCfg(t *testing.T, name string) core.Config {
	t.Helper()
	p, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Baseline(p)
	cfg.Name = name
	return cfg
}

// okRun is a RunFunc returning a clean result.
func okRun(_ context.Context, cfg core.Config) (core.Result, error) {
	return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "ok", IPC: 1}, nil
}

// doOne submits cfg as a batch of one and returns its outcome.
func doOne(p *Pool, cfg core.Config) Outcome { return p.Do(context.Background(), cfg)[0] }

func newPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	p, err := New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPoolMemoizesAndSingleflights(t *testing.T) {
	var calls atomic.Int64
	p := newPool(t, Options{Jobs: 4, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		calls.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the race window
		return okRun(ctx, cfg)
	}})
	cfg := testCfg(t, "memo")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); doOne(p, cfg) }()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("8 concurrent identical requests executed %d times, want 1", n)
	}
	out := doOne(p, cfg)
	if !out.Cached {
		t.Error("repeat request not served from cache")
	}
	if p.Executed() != 1 {
		t.Errorf("Executed() = %d, want 1", p.Executed())
	}
}

func TestPanicIsolation(t *testing.T) {
	p := newPool(t, Options{Jobs: 4, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		if cfg.Name == "boom" {
			panic("injected failure")
		}
		return okRun(ctx, cfg)
	}})
	cfgs := []core.Config{
		testCfg(t, "a"), testCfg(t, "boom"), testCfg(t, "b"), testCfg(t, "c"),
	}
	outs := p.Do(context.Background(), cfgs...)
	ok := 0
	var bad Outcome
	for _, o := range outs {
		if o.OK() {
			ok++
		} else {
			bad = o
		}
	}
	if ok != 3 {
		t.Fatalf("%d runs survived the panicking sibling, want 3", ok)
	}
	if bad.Result.Status != "panic" {
		t.Errorf("panicked run status = %q, want panic", bad.Result.Status)
	}
	if !strings.Contains(bad.Stack, "goroutine") {
		t.Errorf("panic outcome missing stack: %q", bad.Stack)
	}
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "injected failure") {
		t.Errorf("panic outcome error = %v", bad.Err)
	}
}

// TestDeterministicVerdictsNeverRetried: every verdict is terminal. The
// simulator is deterministic, so a deadlock repeats on a re-run, and a
// timeout the pool's own deadline produced stays in the cache for the
// pool's life.
func TestDeterministicVerdictsNeverRetried(t *testing.T) {
	for _, status := range []string{core.StatusTimeout, core.StatusDeadlock, core.StatusCycleCap, core.StatusInvariant, StatusPanic} {
		var calls atomic.Int64
		p := newPool(t, Options{Jobs: 1, Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			calls.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: status}, nil
		}})
		cfg := testCfg(t, "det-"+status)
		out := doOne(p, cfg)
		if again := doOne(p, cfg); !again.Cached || again.Result.Status != status {
			t.Errorf("%s: second request cached=%v status %q, want the cached verdict", status, again.Cached, again.Result.Status)
		}
		if calls.Load() != 1 || p.Executed() != 1 || out.Result.Status != status {
			t.Errorf("%s: status %q after %d executions (pool counts %d), want the verdict after exactly 1",
				status, out.Result.Status, calls.Load(), p.Executed())
		}
	}
}

func TestErrorBecomesDNFWithMessage(t *testing.T) {
	p := newPool(t, Options{Jobs: 1, Run: func(_ context.Context, _ core.Config) (core.Result, error) {
		return core.Result{}, errors.New("bad configuration: no MCs")
	}})
	out := doOne(p, testCfg(t, "badcfg"))
	if out.OK() {
		t.Fatal("error outcome reported OK")
	}
	if !strings.Contains(out.Result.Status, "no MCs") {
		t.Errorf("status = %q, want the error message", out.Result.Status)
	}
	if out.Result.Benchmark != "MUM" || out.Result.Config != "badcfg" {
		t.Errorf("identity not backfilled: %q/%q", out.Result.Config, out.Result.Benchmark)
	}
}

// TestRunTimeoutVerdict exercises the real core.Run path: a slow run must
// surface as one "timeout" DNF row while the fast sibling in the same sweep
// completes. BIN at scale 0.05 finishes in tens
// of milliseconds; MUM at full scale needs ~10s, far past the 1s deadline
// on any plausible machine.
func TestRunTimeoutVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timeout test skipped in -short mode")
	}
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	mum, err := workload.ByAbbr("MUM")
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, Options{Jobs: 2, RunTimeout: time.Second})
	outs := p.Do(context.Background(),
		core.Baseline(bin).ScaleWork(0.05),
		core.Baseline(mum),
	)
	if !outs[0].OK() {
		t.Errorf("fast run status = %q, want ok", outs[0].Result.Status)
	}
	if outs[1].Result.Status != "timeout" {
		t.Fatalf("slow run status = %q, want timeout", outs[1].Result.Status)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	p, err := New(ctx, Options{Jobs: 1, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		close(started)
		<-ctx.Done()
		return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"}, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	go func() { <-started; cancel() }()
	out := doOne(p, testCfg(t, "longrun"))
	if out.Result.Status != "canceled" {
		t.Fatalf("status = %q, want canceled", out.Result.Status)
	}
	// Post-cancel requests must not execute at all.
	out2 := doOne(p, testCfg(t, "never"))
	if out2.Result.Status != "canceled" {
		t.Errorf("post-cancel status = %q, want canceled", out2.Result.Status)
	}
}

func TestDoAllPreservesOrder(t *testing.T) {
	p := newPool(t, Options{Jobs: 8, Run: okRun})
	var cfgs []core.Config
	for i := 0; i < 20; i++ {
		cfgs = append(cfgs, testCfg(t, fmt.Sprintf("cfg-%02d", i)))
	}
	outs := p.Do(context.Background(), cfgs...)
	for i, o := range outs {
		if want := fmt.Sprintf("cfg-%02d", i); o.Result.Config != want {
			t.Fatalf("outs[%d] = %s, want %s", i, o.Result.Config, want)
		}
	}
}

func TestKeyDistinguishesSeedAndScale(t *testing.T) {
	a := testCfg(t, "X")
	b := a
	b.Seed = 2
	c := a.ScaleWork(0.5)
	keys := map[string]bool{Key(a): true, Key(b): true, Key(c): true}
	if len(keys) != 3 {
		t.Errorf("seed/scale variants share keys: %v", keys)
	}
}

// TestDoClientDisconnect is the service-daemon contract: cancelling
// the per-call context aborts the in-flight run (no other caller is
// interested), the caller gets a transient "canceled" outcome, and a later
// request re-executes the run instead of being served the stale verdict.
func TestDoClientDisconnect(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 8)
	p := newPool(t, Options{Jobs: 2, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		n := calls.Add(1)
		if n == 1 {
			started <- struct{}{}
			<-ctx.Done() // simulate core.Run honouring cancellation
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"}, ctx.Err()
		}
		return okRun(ctx, cfg)
	}})
	cfg := testCfg(t, "disconnect")

	ctx, cancel := context.WithCancel(context.Background())
	outCh := make(chan Outcome, 1)
	go func() { outCh <- p.Do(ctx, cfg)[0] }()
	<-started
	cancel() // the only client walks away
	out := <-outCh
	if out.Result.Status != "canceled" {
		t.Fatalf("disconnected call: status %q, want canceled", out.Result.Status)
	}

	// The canceled verdict must not poison the cache: a fresh request
	// re-executes and completes.
	out = doOne(p, cfg)
	if out.Cached || !out.OK() {
		t.Fatalf("re-request after disconnect: cached=%v status=%q, want fresh ok run",
			out.Cached, out.Result.Status)
	}
	if p.Executed() != 1 {
		t.Errorf("Executed() = %d, want 1 (the abandoned run is not a completed simulation)", p.Executed())
	}
}

// TestDoSharedRunSurvivesOneDisconnect: two callers share one
// flight; the first disconnecting must not cancel the run the second is
// still waiting for.
func TestDoSharedRunSurvivesOneDisconnect(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	p := newPool(t, Options{Jobs: 2, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return okRun(ctx, cfg)
		case <-ctx.Done():
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"}, ctx.Err()
		}
	}})
	cfg := testCfg(t, "shared")

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	out1 := make(chan Outcome, 1)
	go func() { out1 <- p.Do(ctx1, cfg)[0] }()
	<-started

	out2 := make(chan Outcome, 1)
	go func() { out2 <- p.Do(context.Background(), cfg)[0] }()
	// Give the second caller time to join the flight, then drop the first.
	time.Sleep(10 * time.Millisecond)
	cancel1()
	select {
	case o := <-out2:
		t.Fatalf("second caller returned %q before the run was released", o.Result.Status)
	case <-time.After(20 * time.Millisecond):
		// Still waiting: the run survived the first disconnect.
	}
	close(release)
	if o := <-out2; !o.OK() {
		t.Fatalf("surviving caller: status %q, want ok", o.Result.Status)
	}
	<-out1
}
