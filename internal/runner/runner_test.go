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
	"repro/internal/xrand"
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

func newPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	if opts.Backoff == 0 {
		opts.Backoff = time.Millisecond
	}
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
		go func() { defer wg.Done(); p.Do(cfg) }()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("8 concurrent identical requests executed %d times, want 1", n)
	}
	out := p.Do(cfg)
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
	outs := p.DoAll(cfgs)
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
	if bad.Attempts != 1 {
		t.Errorf("panic retried: attempts = %d, want 1 (panics are deterministic)", bad.Attempts)
	}
	if !strings.Contains(bad.Stack, "goroutine") {
		t.Errorf("panic outcome missing stack: %q", bad.Stack)
	}
	if bad.Err == nil || !strings.Contains(bad.Err.Error(), "injected failure") {
		t.Errorf("panic outcome error = %v", bad.Err)
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	var calls atomic.Int64
	p := newPool(t, Options{Jobs: 1, Retries: 2, Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
		if calls.Add(1) < 3 {
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "timeout"}, nil
		}
		return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "ok", IPC: 2}, nil
	}})
	out := p.Do(testCfg(t, "flaky"))
	if !out.OK() {
		t.Fatalf("flaky run did not recover: status %q", out.Result.Status)
	}
	if out.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", out.Attempts)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	p := newPool(t, Options{Jobs: 1, Retries: 2, Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
		return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "stall"}, nil
	}})
	out := p.Do(testCfg(t, "stuck"))
	if out.OK() || out.Result.Status != "stall" {
		t.Fatalf("outcome = %+v, want stall DNF", out.Result)
	}
	if out.Attempts != 3 {
		t.Errorf("attempts = %d, want 1 + 2 retries", out.Attempts)
	}
}

func TestDeterministicVerdictsNeverRetried(t *testing.T) {
	for _, status := range []string{"deadlock", "livelock", "cycle-cap", "invariant", "panic"} {
		var calls atomic.Int64
		p := newPool(t, Options{Jobs: 1, Retries: 5, Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
			calls.Add(1)
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: status}, nil
		}})
		out := p.Do(testCfg(t, "det-"+status))
		if calls.Load() != 1 || out.Attempts != 1 {
			t.Errorf("%s: executed %d times (attempts %d), want exactly 1", status, calls.Load(), out.Attempts)
		}
	}
}

func TestErrorBecomesDNFWithMessage(t *testing.T) {
	p := newPool(t, Options{Jobs: 1, Run: func(_ context.Context, _ core.Config) (core.Result, error) {
		return core.Result{}, errors.New("bad configuration: no MCs")
	}})
	out := p.Do(testCfg(t, "badcfg"))
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
// surface as one "timeout" DNF row with its attempt count while the fast
// sibling in the same sweep completes. BIN at scale 0.05 finishes in tens
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
	outs := p.DoAll([]core.Config{
		core.Baseline(bin).ScaleWork(0.05),
		core.Baseline(mum),
	})
	if !outs[0].OK() {
		t.Errorf("fast run status = %q, want ok", outs[0].Result.Status)
	}
	if outs[1].Result.Status != "timeout" {
		t.Fatalf("slow run status = %q, want timeout", outs[1].Result.Status)
	}
	if outs[1].Attempts != 1 {
		// Retries default to 0 here.
		t.Errorf("attempts = %d, want 1", outs[1].Attempts)
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
	out := p.Do(testCfg(t, "longrun"))
	if out.Result.Status != "canceled" {
		t.Fatalf("status = %q, want canceled", out.Result.Status)
	}
	// Post-cancel requests must not execute at all.
	out2 := p.Do(testCfg(t, "never"))
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
	outs := p.DoAll(cfgs)
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

// TestRetryableClassification pins the full verdict table: transient
// verdicts retry, deterministic ones are terminal, and an unknown status
// (a future verdict nobody classified yet) defaults to terminal.
func TestRetryableClassification(t *testing.T) {
	cases := map[string]bool{
		"stall":   true,
		"timeout": true,

		"ok":        false,
		"deadlock":  false,
		"livelock":  false,
		"cycle-cap": false,
		"invariant": false,
		"panic":     false,
		"canceled":  false,
		"error":     false,
		"io_error":  false,

		// Outside the vocabulary: an invalid-config message promoted
		// into Status, and a verdict that does not exist yet.
		"core: configuration has no memory controllers": false,
		"some-future-verdict":                           false,
		"":                                              false,
	}
	for status, want := range cases {
		if got := Retryable(status); got != want {
			t.Errorf("Retryable(%q) = %v, want %v", status, got, want)
		}
	}
}

// TestBackoffDelayBounds asserts the jitter and cap contract: every delay
// lies in [cap/2, 3*cap/2] where cap = min(base<<(retry-1), max), and huge
// retry budgets can neither overflow nor exceed the cap.
func TestBackoffDelayBounds(t *testing.T) {
	base := 10 * time.Millisecond
	max := 160 * time.Millisecond
	jitter := xrand.New(42)
	for retry := 1; retry <= 200; retry++ {
		exp := base
		for i := 1; i < retry && exp < max; i++ {
			exp <<= 1
		}
		if exp > max {
			exp = max
		}
		d := backoffDelay(base, max, retry, jitter)
		if d < exp/2 || d > exp+exp/2 {
			t.Fatalf("retry %d: delay %v outside [%v, %v]", retry, d, exp/2, exp+exp/2)
		}
		if d < 0 || d > max+max/2 {
			t.Fatalf("retry %d: delay %v breaches the cap %v (overflow?)", retry, d, max+max/2)
		}
	}
	// Uncapped growth for the first few retries: retry 3 must be able to
	// exceed retry 1's ceiling, or the backoff is not exponential at all.
	saw := false
	for i := 0; i < 64; i++ {
		if backoffDelay(base, max, 3, jitter) > 3*base/2 {
			saw = true
			break
		}
	}
	if !saw {
		t.Error("retry 3 never exceeded retry 1's jitter ceiling; backoff not growing")
	}
}

// TestDoContextClientDisconnect is the service-daemon contract: cancelling
// the per-call context aborts the in-flight run (no other caller is
// interested), the caller gets a transient "canceled" outcome, and a later
// request re-executes the run instead of being served the stale verdict.
func TestDoContextClientDisconnect(t *testing.T) {
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
	go func() { outCh <- p.DoContext(ctx, cfg) }()
	<-started
	cancel() // the only client walks away
	out := <-outCh
	if out.Result.Status != "canceled" {
		t.Fatalf("disconnected call: status %q, want canceled", out.Result.Status)
	}

	// The canceled verdict must not poison the cache: a fresh request
	// re-executes and completes.
	out = p.Do(cfg)
	if out.Cached || !out.OK() {
		t.Fatalf("re-request after disconnect: cached=%v status=%q, want fresh ok run",
			out.Cached, out.Result.Status)
	}
	if p.Executed() != 1 {
		t.Errorf("Executed() = %d, want 1 (the abandoned run is not a completed simulation)", p.Executed())
	}
}

// TestDoContextSharedRunSurvivesOneDisconnect: two callers share one
// flight; the first disconnecting must not cancel the run the second is
// still waiting for.
func TestDoContextSharedRunSurvivesOneDisconnect(t *testing.T) {
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
	go func() { out1 <- p.DoContext(ctx1, cfg) }()
	<-started

	out2 := make(chan Outcome, 1)
	go func() { out2 <- p.DoContext(context.Background(), cfg) }()
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

// TestLookupHookServesExternalStore: a cache miss consults the external
// content-addressed store before executing anything.
func TestLookupHookServesExternalStore(t *testing.T) {
	cfg := testCfg(t, "stored")
	key := Key(cfg)
	var calls atomic.Int64
	p := newPool(t, Options{
		Jobs: 2,
		Run: func(ctx context.Context, c core.Config) (core.Result, error) {
			calls.Add(1)
			return okRun(ctx, c)
		},
		Lookup: func(k string) (Record, bool) {
			if k == key {
				return Record{Key: k, Attempts: 2,
					Result: core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "ok", IPC: 7}}, true
			}
			return Record{}, false
		},
	})
	out := p.Do(cfg)
	if !out.Resumed || out.Result.IPC != 7 || out.Attempts != 2 {
		t.Fatalf("store hit not honoured: %+v", out)
	}
	if calls.Load() != 0 {
		t.Errorf("run executed %d times despite store hit", calls.Load())
	}
	// Misses still execute.
	other := testCfg(t, "fresh")
	if out := p.Do(other); out.Resumed || !out.OK() {
		t.Fatalf("store miss mishandled: %+v", out)
	}
	if calls.Load() != 1 {
		t.Errorf("store miss executed %d times, want 1", calls.Load())
	}
}
