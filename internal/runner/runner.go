// Package runner is the resilient execution layer between the experiment
// harnesses and core.Run. Every closed-loop simulation in the repository —
// the experiments suite, tesim, and any future sweep — goes through a Pool,
// which provides what a 600-run paper sweep needs to survive a long night:
//
//   - a bounded worker pool (Jobs workers, default GOMAXPROCS) with a
//     memoizing, singleflight result cache, so figures sharing a
//     configuration still reuse each other's simulations and the rendered
//     tables are bit-identical regardless of worker count;
//   - a per-run wall-clock deadline (RunTimeout) and sweep-wide
//     cancellation via the pool's context: a wedged run becomes a DNF row
//     with a "timeout" status, never a hung process;
//   - panic isolation: a recover around every run converts an unexpected
//     panic into a typed DNF outcome carrying the stack, so one bad
//     configuration cannot kill the rest of the sweep;
//   - bounded retry with jittered exponential backoff for transient
//     verdicts ("stall", "timeout") — never for deterministic deadlocks —
//     with per-run attempt accounting surfaced in the Outcome;
//   - an fsynced JSONL checkpoint journal (Checkpoint/Resume) recording
//     each finished run, so an interrupted sweep resumes without
//     re-executing completed simulations (see checkpoint.go).
package runner

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/xrand"
)

// RunFunc executes one simulation. The default is core.Run; tests inject
// panicking or flaky substitutes to exercise the isolation machinery.
type RunFunc func(ctx context.Context, cfg core.Config) (core.Result, error)

// LaneRunFunc executes one lane batch: len(seeds) replicas of cfg differing
// only in Seed, advanced through a single lockstep cycle loop. The default
// is core.RunLanes; tests inject substitutes to exercise the coalescing and
// fallback machinery.
type LaneRunFunc func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error)

// Options configures a Pool. The zero value is usable: GOMAXPROCS workers,
// no per-run deadline, no retries, no checkpoint.
type Options struct {
	// Jobs bounds concurrent simulations; 0 means GOMAXPROCS.
	Jobs int
	// RunTimeout is the per-run wall-clock deadline; 0 disables it.
	RunTimeout time.Duration
	// Retries is how many extra attempts a transient DNF ("stall",
	// "timeout") gets before it is recorded; deterministic verdicts
	// (deadlock, livelock, cycle-cap, panic) are never retried.
	Retries int
	// Lanes is the default lane-batch width applied to every config whose
	// own Lanes field is zero: DoAll/DoAllContext coalesce up to Lanes
	// same-configuration/different-seed requests into one lane-batched
	// execution (core.RunLanes) occupying a single worker slot. Lane
	// batching is result-invariant — every lane is bit-identical to its
	// solo run — so it does not participate in cache keys or checkpoint
	// identity: each seed keeps its own Key, cache entry and journal
	// record. 0 and 1 both disable coalescing.
	Lanes int
	// Backoff is the base delay before the first retry; successive
	// retries double it (capped by MaxBackoff), each with ±50%
	// deterministic jitter. 0 means DefaultBackoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth of retry delays before
	// jitter is applied, so a long retry budget cannot stretch a single
	// wait into minutes. 0 means DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Lookup, when non-nil, is consulted on every cache miss before a
	// run executes: an external content-addressed result store (the
	// service daemon's journal-backed store). A hit whose Key matches is
	// cached and returned as a Resumed outcome without executing. Called
	// with the pool lock held; it must be fast and must not call back
	// into the pool.
	Lookup func(key string) (Record, bool)
	// Checkpoint, when non-empty, is the JSONL journal path; every
	// finished run is appended and fsynced so a killed sweep loses at
	// most the runs still in flight.
	Checkpoint string
	// Resume preloads the journal into the cache so finished runs are
	// never re-executed.
	Resume bool
	// FS is the filesystem seam under the checkpoint journal; nil means
	// the real filesystem. Tests inject iofault.FaultFS to prove the
	// durability contract under EIO/ENOSPC/power-cut.
	FS iofault.FS
	// Persist, when non-nil, is called with every freshly executed
	// durable outcome BEFORE it is published to the cache — the service
	// daemon's fsynced store append. A non-nil error means the outcome
	// could not be made durable: the pool then refuses to cache it and
	// returns it with Status "io_error", so nothing is ever acknowledged
	// or served from memory that would not survive a restart. Calls are
	// serialized.
	Persist func(Record) error
	// Run overrides the simulation entry point (tests only).
	Run RunFunc
	// RunLanes overrides the lane-batch entry point (tests only).
	RunLanes LaneRunFunc
	// OnDone, when non-nil, receives every freshly executed outcome.
	// Calls are serialized; cache and journal state are consistent when
	// it fires.
	OnDone func(Outcome)
}

// DefaultBackoff is the base retry delay when Options.Backoff is zero.
const DefaultBackoff = 250 * time.Millisecond

// DefaultMaxBackoff is the retry-delay cap when Options.MaxBackoff is zero.
const DefaultMaxBackoff = 15 * time.Second

// Outcome is the terminal state of one run request.
type Outcome struct {
	// Key identifies the (config, benchmark, seed, kernel-length) tuple.
	Key string
	// Result is the simulation's (possibly partial) statistics. For a
	// panic or configuration error the Status carries the message.
	Result core.Result
	// Attempts is how many executions the run took (1 = no retry).
	Attempts int
	// Err is the final attempt's error (nil for clean runs; not
	// preserved across checkpoint resume).
	Err error
	// Stack is the captured goroutine stack when the run panicked.
	Stack string
	// Cached reports the outcome was served from the in-memory cache
	// rather than executed by this call.
	Cached bool
	// Resumed reports the outcome was loaded from a checkpoint journal.
	Resumed bool
}

// OK reports whether the run completed without a degradation verdict.
func (o Outcome) OK() bool { return o.Result.OK() }

// retryableStatus classifies every verdict in the Result.Status
// vocabulary. Transient verdicts are worth another attempt: a wall-clock
// timeout is host scheduling, not simulated behaviour, and fault injection
// can make system stalls load-dependent. Deterministic verdicts —
// deadlock, livelock, cycle-cap, invariant, panic, an invalid
// configuration — always reproduce, so retrying them only wastes the
// sweep's time, and "canceled" means the harness itself is shutting down.
// A status outside the table (a future verdict, or an error message
// promoted into Status) is terminal until someone classifies it here;
// TestRetryableClassification pins the full table.
var retryableStatus = map[string]bool{
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
	// io_error: the run itself finished but its result could not be made
	// durable (store append failed). Retrying the simulation while the
	// disk is still broken just burns a worker; the outcome is never
	// cached, so a later re-submission re-executes once the fault clears.
	"io_error": false,
}

// Retryable reports whether a status is a transient verdict worth another
// attempt; see retryableStatus for the classification table.
func Retryable(status string) bool { return retryableStatus[status] }

// backoffDelay returns the jittered delay before retry number retry
// (1-based): base doubled per retry, capped at max before ±50% jitter, so
// the result always lies in [cap/2, 3·cap/2] where cap = min(base<<(retry-1),
// max). The doubling loop (rather than a shift) cannot overflow however
// large the retry budget is.
func backoffDelay(base, max time.Duration, retry int, jitter *xrand.Rand) time.Duration {
	d := base
	for i := 1; i < retry && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + jitter.Float64()))
}

// Key derives the cache/journal identity of a configuration: name,
// benchmark, seed and scaled kernel length. Two configs that differ only
// in fields outside the key must also differ in Name (the Config builders
// maintain this by suffixing every mutation).
func Key(cfg core.Config) string {
	return fmt.Sprintf("%s|%s|s%d|i%d",
		cfg.Name, cfg.Workload.Abbr, cfg.Seed, cfg.Workload.InstrsPerWarp)
}

// Pool executes runs through a bounded set of workers with memoization,
// retries, panic isolation and checkpointing. All methods are safe for
// concurrent use.
type Pool struct {
	ctx      context.Context
	opts     Options
	run      RunFunc
	runLanes LaneRunFunc
	sem      chan struct{}

	mu         sync.Mutex
	cache      map[string]Outcome
	inflight   map[string]*flight
	executed   int
	replay     ReplayStats // what resume found besides valid records
	journal    *Journal
	journalErr error // first journal write failure, surfaced by Close

	cbMu sync.Mutex // serializes OnDone callbacks
}

// New builds a pool bound to ctx; cancelling ctx aborts in-flight runs
// (they finish with a "canceled" verdict) and makes further requests
// return immediately.
func New(ctx context.Context, opts Options) (*Pool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = DefaultMaxBackoff
	}
	if opts.MaxBackoff < opts.Backoff {
		opts.MaxBackoff = opts.Backoff
	}
	if opts.Retries < 0 {
		return nil, fmt.Errorf("runner: Retries must be >= 0, got %d", opts.Retries)
	}
	p := &Pool{
		ctx:      ctx,
		opts:     opts,
		run:      opts.Run,
		runLanes: opts.RunLanes,
		sem:      make(chan struct{}, opts.Jobs),
		cache:    make(map[string]Outcome),
		inflight: make(map[string]*flight),
	}
	if p.run == nil {
		p.run = core.Run
	}
	if p.runLanes == nil {
		p.runLanes = core.RunLanes
	}
	if opts.Checkpoint != "" {
		if opts.Resume {
			recs, stats, err := LoadJournalFS(opts.FS, opts.Checkpoint)
			if err != nil {
				return nil, err
			}
			p.replay = stats
			for _, rec := range recs {
				p.cache[rec.Key] = Outcome{
					Key:      rec.Key,
					Result:   rec.Result,
					Attempts: rec.Attempts,
					Resumed:  true,
				}
			}
		}
		j, err := OpenJournalFS(opts.FS, opts.Checkpoint)
		if err != nil {
			return nil, err
		}
		p.journal = j
	}
	return p, nil
}

// flight is one in-progress execution and the callers awaiting it.
// waiters counts the contexts still interested in the outcome; when the
// last waiter abandons (its context died), the run itself is cancelled.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
}

// abandon withdraws one caller's stake in a flight, cancelling the run
// when nobody is left to receive the outcome.
func (p *Pool) abandon(fl *flight) {
	p.mu.Lock()
	fl.waiters--
	if fl.waiters <= 0 {
		fl.cancel()
	}
	p.mu.Unlock()
}

// Do executes (or recalls) one run. It blocks until the outcome is
// terminal; duplicate concurrent requests for the same key share a single
// execution.
func (p *Pool) Do(cfg core.Config) Outcome {
	return p.DoContext(context.Background(), cfg)
}

// DoContext is Do bounded by a per-call context — the service daemon's
// end-to-end request deadline. The run executes under the pool context as
// before, but every concurrent caller for the key holds a stake in it:
// when ctx dies the caller gets a "canceled" outcome immediately, and when
// the last interested caller is gone the in-flight run itself is cancelled
// (a disconnected client must not keep burning a worker).
//
// An outcome forced by per-call cancellation ("canceled"/"timeout" with
// the run context dead while the pool is still alive) is transient: it is
// returned to the caller but neither cached, journaled nor counted as
// executed, so a later request re-executes the run. Pool-context
// cancellation (harness shutdown) keeps the historical behaviour: the
// canceled outcome is cached so sweep summaries can render it.
func (p *Pool) DoContext(ctx context.Context, cfg core.Config) Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	key := Key(cfg)
	for {
		if ctx.Err() != nil {
			return canceledOutcome(cfg, key, 0, ctx.Err())
		}
		p.mu.Lock()
		if out, ok := p.cache[key]; ok {
			p.mu.Unlock()
			out.Cached = true
			return out
		}
		if p.opts.Lookup != nil {
			if rec, ok := p.opts.Lookup(key); ok && rec.Key == key {
				out := Outcome{Key: key, Result: rec.Result, Attempts: rec.Attempts, Resumed: true}
				p.cache[key] = out
				p.mu.Unlock()
				return out
			}
		}
		if fl, ok := p.inflight[key]; ok {
			fl.waiters++
			p.mu.Unlock()
			select {
			case <-fl.done:
				continue // the winner has populated the cache (or left a transient gap)
			case <-ctx.Done():
				p.abandon(fl)
				return canceledOutcome(cfg, key, 0, ctx.Err())
			}
		}
		runCtx, cancel := context.WithCancel(p.ctx)
		fl := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
		p.inflight[key] = fl
		p.mu.Unlock()

		// The winner's own context dying abandons its stake like any
		// other waiter's; the run is cancelled only when no caller
		// remains interested.
		stop := context.AfterFunc(ctx, func() { p.abandon(fl) })
		out := p.acquireAndRun(runCtx, cfg, key)
		transient := (out.Result.Status == "canceled" || out.Result.Status == "timeout") &&
			runCtx.Err() != nil && p.ctx.Err() == nil
		stop()
		cancel()

		// Durability gate: a durable outcome must be persisted BEFORE it
		// is published to the cache, so the pool never serves from memory
		// a result that would not survive a restart. A persist failure
		// turns the outcome into an uncached "io_error": the caller sees
		// the degradation, and a later request re-executes the run.
		durable := !transient && out.Result.Status != "canceled" && out.Result.Status != "timeout"
		var persistErr error
		if durable && p.opts.Persist != nil {
			p.cbMu.Lock()
			persistErr = p.opts.Persist(Record{Key: out.Key, Attempts: out.Attempts, Result: out.Result})
			p.cbMu.Unlock()
			if persistErr != nil {
				out.Result.Status = "io_error"
				out.Err = persistErr
			}
		}

		p.mu.Lock()
		if !transient && persistErr == nil {
			p.cache[key] = out
		}
		delete(p.inflight, key)
		if !transient {
			p.executed++
			if persistErr == nil {
				p.appendJournalLocked(out)
			}
		}
		p.mu.Unlock()
		close(fl.done)

		if p.opts.OnDone != nil {
			p.cbMu.Lock()
			p.opts.OnDone(out)
			p.cbMu.Unlock()
		}
		return out
	}
}

// DoAll fans cfgs out across the worker pool and waits for every outcome;
// outs[i] corresponds to cfgs[i]. Harnesses use it to warm the cache in
// parallel before rendering tables serially (and deterministically) from
// cache hits. When lane batching is enabled (Options.Lanes or per-config
// Lanes >= 2) it coalesces same-configuration/different-seed requests into
// lane-batched executions; see DoAllContext.
func (p *Pool) DoAll(cfgs []core.Config) []Outcome {
	return p.DoAllContext(context.Background(), cfgs)
}

// laneWidth resolves the effective lane-batch width for one config: the
// config's own request, the pool default where the config is silent, floored
// at one (solo).
func (p *Pool) laneWidth(cfg core.Config) int {
	w := cfg.Lanes
	if w == 0 {
		w = p.opts.Lanes
	}
	if w < 1 {
		w = 1
	}
	return w
}

// laneGroupKey identifies configs that may share a lane batch: the cache
// identity (see Key) minus the seed. Configs in one group are identical
// simulations by the Key contract — anything that changes results must also
// change Name — so RunLanes may legally replicate one representative across
// the group's seeds.
func laneGroupKey(cfg core.Config) string {
	return fmt.Sprintf("%s|%s|i%d", cfg.Name, cfg.Workload.Abbr, cfg.Workload.InstrsPerWarp)
}

// DoAllContext is DoAll bounded by a per-call context, with lane-batch
// coalescing: requests that differ only in Seed (same lane group) and carry
// an effective lane width >= 2 are chunked width seeds at a time into single
// core.RunLanes executions. A chunk occupies ONE worker slot — its lanes
// advance round-robin in one goroutine — and every member seed keeps its
// solo identity end to end: its own cache Key, its own flight (so concurrent
// Do/DoContext callers for the same seed share the batched execution), its
// own journal record and its own Outcome, bit-identical to what a solo run
// would have produced.
//
// Everything the lane path cannot settle falls back to the solo path with
// its full retry budget: duplicate keys, seeds already in flight elsewhere,
// leftover chunks of one, and lanes whose verdict is transient-retryable
// ("stall"/"timeout" with retries configured) — a retryable lane verdict is
// deliberately NOT published, so the fallback re-executes it instead of
// serving a DNF that solo execution would have retried away.
func (p *Pool) DoAllContext(ctx context.Context, cfgs []core.Config) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]Outcome, len(cfgs))
	settled := make([]bool, len(cfgs))

	// Partition: lane-eligible requests group by identity-minus-seed;
	// everything else (width < 2, duplicate keys) goes straight to the solo
	// path, where the singleflight cache deduplicates against the batch.
	groups := make(map[string][]int)
	var order []string
	claimed := make(map[string]bool)
	var solo []int
	for i, cfg := range cfgs {
		k := Key(cfg)
		if p.laneWidth(cfg) < 2 || claimed[k] {
			solo = append(solo, i)
			continue
		}
		claimed[k] = true
		gk := laneGroupKey(cfg)
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], i)
	}

	var wg sync.WaitGroup
	for _, gk := range order {
		idxs := groups[gk]
		width := p.laneWidth(cfgs[idxs[0]])
		for start := 0; start < len(idxs); start += width {
			end := start + width
			if end > len(idxs) {
				end = len(idxs)
			}
			chunk := idxs[start:end]
			if len(chunk) < 2 {
				solo = append(solo, chunk...) // a lane of one is just a solo run
				continue
			}
			wg.Add(1)
			go func(chunk []int) {
				defer wg.Done()
				p.doLaneChunk(ctx, cfgs, chunk, outs, settled)
			}(chunk)
		}
	}
	for _, i := range solo {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = p.DoContext(ctx, cfgs[i])
			settled[i] = true
		}(i)
	}
	wg.Wait()

	// Second pass: chunk members the lane path left unsettled (keys that
	// were already in flight elsewhere, retryable lane verdicts) resolve
	// through the solo path.
	var fb sync.WaitGroup
	for i := range cfgs {
		if settled[i] {
			continue
		}
		fb.Add(1)
		go func(i int) {
			defer fb.Done()
			outs[i] = p.DoContext(ctx, cfgs[i])
		}(i)
	}
	fb.Wait()
	return outs
}

// laneClaim is one seed's stake in a lane chunk: its index in the caller's
// cfgs slice, its cache key, and the flight registered for it.
type laneClaim struct {
	idx int
	key string
	fl  *flight
}

// doLaneChunk executes one lane batch. It claims a flight per member seed
// (cache and Lookup hits settle immediately; keys already in flight
// elsewhere drop out and fall back), runs the claimed seeds through one
// RunLanes call on a single worker slot, and publishes each lane's outcome
// through exactly the DoContext pipeline: transient classification,
// durability gate, cache, journal, executed count, OnDone.
func (p *Pool) doLaneChunk(ctx context.Context, cfgs []core.Config, chunk []int, outs []Outcome, settled []bool) {
	if ctx.Err() != nil {
		for _, i := range chunk {
			outs[i] = canceledOutcome(cfgs[i], Key(cfgs[i]), 0, ctx.Err())
			settled[i] = true
		}
		return
	}

	runCtx, cancel := context.WithCancel(p.ctx)
	defer cancel()

	var claims []laneClaim
	p.mu.Lock()
	for _, i := range chunk {
		key := Key(cfgs[i])
		if out, ok := p.cache[key]; ok {
			out.Cached = true
			outs[i] = out
			settled[i] = true
			continue
		}
		if p.opts.Lookup != nil {
			if rec, ok := p.opts.Lookup(key); ok && rec.Key == key {
				out := Outcome{Key: key, Result: rec.Result, Attempts: rec.Attempts, Resumed: true}
				p.cache[key] = out
				outs[i] = out
				settled[i] = true
				continue
			}
		}
		if _, ok := p.inflight[key]; ok {
			continue // already running elsewhere; the fallback pass waits on it
		}
		fl := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
		p.inflight[key] = fl
		claims = append(claims, laneClaim{idx: i, key: key, fl: fl})
	}
	p.mu.Unlock()
	if len(claims) == 0 {
		return
	}

	// The chunk caller's context dying withdraws its stake in every claimed
	// flight. The flights share one cancel, so the batch aborts when ANY
	// claimed seed loses its last waiter — the lanes advance in lockstep and
	// cannot be cancelled individually; an aborted lane's verdict is
	// transient and re-executes on the next request.
	stop := context.AfterFunc(ctx, func() {
		for _, c := range claims {
			p.abandon(c.fl)
		}
	})
	defer stop()

	// One representative config carries the whole batch (the group key
	// guarantees the members are the same simulation modulo seed).
	base := cfgs[claims[0].idx]
	base.Lanes = len(claims)
	seeds := make([]uint64, len(claims))
	for j, c := range claims {
		seeds[j] = cfgs[c.idx].Seed
	}

	// One worker slot serves the whole batch: the lanes run round-robin in
	// this goroutine, so a chunk is one job from the scheduler's view.
	var results []core.Result
	var errs []error
	var stack string
	select {
	case p.sem <- struct{}{}:
		if runCtx.Err() == nil {
			results, errs, stack = p.runLanesOnce(runCtx, base, seeds)
		}
		<-p.sem
	case <-runCtx.Done():
	}

	for j, c := range claims {
		var out Outcome
		if results == nil {
			out = canceledOutcome(cfgs[c.idx], c.key, 0, runCtx.Err())
		} else {
			out = Outcome{Key: c.key, Result: results[j], Attempts: 1, Err: errs[j], Stack: stack}
		}
		if final, ok := p.publishLaneOutcome(runCtx, c, out); ok {
			outs[c.idx] = final
			settled[c.idx] = true
		}
	}
}

// runLanesOnce executes a single lane-batch attempt with panic isolation
// and the per-run deadline scaled by the batch width (one loop carries
// len(seeds) runs' worth of work). Result identity backfill mirrors
// runOnce, per lane.
func (p *Pool) runLanesOnce(ctx context.Context, cfg core.Config, seeds []uint64) (results []core.Result, errs []error, stack string) {
	if p.opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(len(seeds))*p.opts.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			stack = string(debug.Stack())
			err := fmt.Errorf("runner: lane batch %s/%s panicked: %v", cfg.Name, cfg.Workload.Abbr, r)
			results = make([]core.Result, len(seeds))
			errs = make([]error, len(seeds))
			for i := range seeds {
				results[i] = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "panic"}
				errs[i] = err
			}
		}
	}()
	results, errs = p.runLanes(ctx, cfg, seeds)
	for i := range results {
		if results[i].Benchmark == "" {
			results[i].Benchmark = cfg.Workload.Abbr
		}
		if results[i].Config == "" {
			results[i].Config = cfg.Name
		}
		if errs[i] != nil && (results[i].Status == "" || results[i].Status == "ok") {
			results[i].Status = errs[i].Error()
		}
	}
	return results, errs, ""
}

// publishLaneOutcome pushes one lane's outcome through the DoContext
// publication pipeline, returning the published outcome (persist failure
// rewrites it to "io_error") and whether it settled the request. False
// means the flight closed with a gap — a retryable verdict the solo
// fallback should re-execute with the full retry budget.
func (p *Pool) publishLaneOutcome(runCtx context.Context, c laneClaim, out Outcome) (Outcome, bool) {
	transient := (out.Result.Status == "canceled" || out.Result.Status == "timeout") &&
		runCtx.Err() != nil && p.ctx.Err() == nil
	// A retryable DNF from a lane has spent only attempt 1 of its budget;
	// solo execution would have retried it in place. The lockstep loop
	// cannot re-run one lane, so leave the verdict unpublished and let the
	// fallback pass re-execute the seed solo.
	retryLater := !transient && Retryable(out.Result.Status) &&
		p.opts.Retries > 0 && runCtx.Err() == nil

	durable := !transient && !retryLater &&
		out.Result.Status != "canceled" && out.Result.Status != "timeout"
	var persistErr error
	if durable && p.opts.Persist != nil {
		p.cbMu.Lock()
		persistErr = p.opts.Persist(Record{Key: out.Key, Attempts: out.Attempts, Result: out.Result})
		p.cbMu.Unlock()
		if persistErr != nil {
			out.Result.Status = "io_error"
			out.Err = persistErr
		}
	}

	p.mu.Lock()
	if !transient && !retryLater && persistErr == nil {
		p.cache[c.key] = out
	}
	delete(p.inflight, c.key)
	if !transient && !retryLater {
		p.executed++
		if persistErr == nil {
			p.appendJournalLocked(out)
		}
	}
	p.mu.Unlock()
	close(c.fl.done)

	if retryLater {
		return out, false
	}
	if p.opts.OnDone != nil {
		p.cbMu.Lock()
		p.opts.OnDone(out)
		p.cbMu.Unlock()
	}
	return out, true
}

// acquireAndRun takes a worker slot and executes the retry loop under ctx
// (the flight's run context: the pool context narrowed by per-call
// cancellation).
func (p *Pool) acquireAndRun(ctx context.Context, cfg core.Config, key string) Outcome {
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		return canceledOutcome(cfg, key, 0, ctx.Err())
	}
	if ctx.Err() != nil {
		return canceledOutcome(cfg, key, 0, ctx.Err())
	}

	maxAttempts := 1 + p.opts.Retries
	// The jitter stream is keyed off the run identity so backoff delays
	// are reproducible; it only perturbs timing, never results.
	jitter := xrand.New(hashKey(key) ^ 0x6a6974746572) // "jitter"
	var out Outcome
	for attempt := 1; ; attempt++ {
		res, err, stack := p.runOnce(ctx, cfg)
		out = Outcome{Key: key, Result: res, Attempts: attempt, Err: err, Stack: stack}
		if res.OK() || !Retryable(res.Status) || attempt >= maxAttempts || ctx.Err() != nil {
			return out
		}
		delay := backoffDelay(p.opts.Backoff, p.opts.MaxBackoff, attempt, jitter)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return out
		}
	}
}

// runOnce executes a single attempt with the per-run deadline and panic
// isolation. A panic becomes a "panic" DNF with the stack attached; an
// error outside the typed vocabulary (e.g. an invalid configuration)
// becomes a DNF whose Status carries the message.
func (p *Pool) runOnce(ctx context.Context, cfg core.Config) (res core.Result, err error, stack string) {
	if p.opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			stack = string(debug.Stack())
			err = fmt.Errorf("runner: run %s/%s panicked: %v", cfg.Name, cfg.Workload.Abbr, r)
			res = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "panic"}
		}
	}()
	res, err = p.run(ctx, cfg)
	if res.Benchmark == "" {
		res.Benchmark = cfg.Workload.Abbr
	}
	if res.Config == "" {
		res.Config = cfg.Name
	}
	if err != nil && (res.Status == "" || res.Status == "ok") {
		res.Status = err.Error()
	}
	return res, err, ""
}

func canceledOutcome(cfg core.Config, key string, attempts int, err error) Outcome {
	if attempts == 0 {
		attempts = 1
	}
	return Outcome{
		Key:      key,
		Result:   core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"},
		Attempts: attempts,
		Err:      err,
	}
}

// appendJournalLocked checkpoints a finished run. "canceled" runs are not
// finished (the sweep is shutting down) and "timeout" verdicts are
// host-transient, so neither is journaled: both re-execute on resume.
func (p *Pool) appendJournalLocked(out Outcome) {
	if p.journal == nil || out.Result.Status == "canceled" || out.Result.Status == "timeout" {
		return
	}
	// A journal write failure must not kill the sweep it exists to
	// protect; the error is remembered and surfaced via Close.
	if err := p.journal.Append(Record{Key: out.Key, Attempts: out.Attempts, Result: out.Result}); err != nil {
		p.journalErr = err
	}
}

// Executed returns how many simulations this pool actually ran (cache hits
// and resumed runs excluded).
func (p *Pool) Executed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed
}

// Skipped returns how many torn journal lines resume ignored.
func (p *Pool) Skipped() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replay.Skipped
}

// Quarantined returns how many corrupt journal records resume moved to
// the .corrupt sidecar.
func (p *Pool) Quarantined() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replay.Quarantined
}

// Replay returns the full resume replay statistics.
func (p *Pool) Replay() ReplayStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replay
}

// Outcomes snapshots every terminal outcome, sorted by key for stable
// reporting.
func (p *Pool) Outcomes() []Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	outs := make([]Outcome, 0, len(p.cache))
	for _, o := range p.cache {
		outs = append(outs, o)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Key < outs[j].Key })
	return outs
}

// Close flushes and closes the checkpoint journal, returning any write
// error swallowed during the sweep.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.journal != nil {
		err = p.journal.Close()
		p.journal = nil
	}
	if p.journalErr != nil {
		return p.journalErr
	}
	return err
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
