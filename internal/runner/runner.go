// Package runner is the resilient execution layer between the experiment
// harnesses and core.Run. Every closed-loop simulation in the repository —
// the experiments suite, tesim, the explorer and the tesimd service — goes
// through a Pool, which provides what a 600-run paper sweep needs to survive
// a long night:
//
//   - a bounded worker pool (Jobs workers, default GOMAXPROCS) with a
//     memoizing, singleflight result cache, so figures sharing a
//     configuration still reuse each other's simulations and the rendered
//     tables are bit-identical regardless of worker count;
//   - one core.Slot per worker: each run is built into the Systems its
//     slot's last run finished, while no collection has freed them since,
//     so a sweep or a daemon's run of requests makes almost no
//     construction garbage and the collector stays off the simulation's
//     cores;
//   - a per-run wall-clock deadline (RunTimeout) and sweep-wide
//     cancellation via the pool's context: a wedged run becomes a DNF row
//     with a "timeout" status, never a hung process;
//   - panic isolation: a recover around every run converts an unexpected
//     panic into a typed DNF outcome carrying the stack, so one bad
//     configuration cannot kill the rest of the sweep;
//   - one execution per run: every verdict but "timeout" and "canceled"
//     is a pure function of the core.Config, so a run is never retried;
//     a timeout is not journaled, so a resume runs it again;
//   - an fsynced JSONL checkpoint journal (Checkpoint/Resume) recording
//     each finished run, so an interrupted sweep resumes without
//     re-executing completed simulations (see checkpoint.go). One
//     durability rule holds for every caller: a durable outcome is
//     appended and fsynced before it is cached, and an outcome the journal
//     refuses is returned as an uncached "io_error", so nothing is served
//     from memory that would not survive a restart. The service daemon's
//     result store is this journal.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
)

// The statuses a Pool adds to core's Result.Status vocabulary.
const (
	StatusPanic   = "panic"    // the run panicked; Outcome.Stack holds the stack
	StatusIOError = "io_error" // the checkpoint journal refused the outcome
)

// RunFunc executes one simulation. Without one the pool runs each
// simulation on its worker slot (core.Slot.Run); tests inject panicking or
// flaky substitutes to exercise the isolation machinery.
type RunFunc func(ctx context.Context, cfg core.Config) (core.Result, error)

// LaneRunFunc executes one lane batch: len(seeds) replicas of cfg differing
// only in Seed, advanced through a single lockstep cycle loop. Without one
// the pool runs each batch on its worker slot (core.Slot.RunLanes); tests
// inject substitutes to record the batches the pool coalesces and to make
// a batch fail or panic.
type LaneRunFunc func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error)

// Options configures a Pool. The zero value is usable: GOMAXPROCS workers,
// no per-run deadline, no checkpoint.
type Options struct {
	// Jobs bounds concurrent simulations; 0 means GOMAXPROCS.
	Jobs int
	// RunTimeout is the per-run wall-clock deadline; 0 disables it.
	RunTimeout time.Duration
	// Checkpoint, when non-empty, is the JSONL journal path. Every
	// durable outcome is appended and fsynced BEFORE it is cached, so a
	// killed sweep loses at most the runs still in flight and nothing is
	// served that a restart would lose. An outcome the journal refuses is
	// returned with Status "io_error" and not cached, so a later request
	// re-executes it.
	Checkpoint string
	// Resume preloads the journal into the cache so finished runs are
	// never re-executed.
	Resume bool
	// FS is the filesystem seam under the checkpoint journal; nil means
	// the real filesystem. Tests inject iofault.FaultFS to prove the
	// durability contract under EIO/ENOSPC/power-cut.
	FS iofault.FS
	// Run overrides the simulation entry point (tests and tracing only).
	// A chunk runs on its worker slot's memory only while Run and
	// RunLanes are both nil.
	Run RunFunc
	// RunLanes overrides the lane-batch entry point (tests and tracing
	// only).
	RunLanes LaneRunFunc
	// OnDone, when non-nil, receives every freshly executed outcome.
	// Calls are serialized; cache and journal state are consistent when
	// it fires.
	OnDone func(Outcome)
}

// Outcome is the terminal state of one run request.
type Outcome struct {
	// Key identifies the (config, benchmark, seed, kernel-length) tuple.
	Key string
	// Result is the simulation's (possibly partial) statistics. For a
	// panic or configuration error the Status carries the message.
	Result core.Result
	// Err is the run's error (nil for clean runs; not preserved across
	// checkpoint resume).
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

// Key derives the cache/journal identity of a configuration: name,
// benchmark, seed and scaled kernel length. Two configs that differ only
// in fields outside the key must also differ in Name (the Config builders
// maintain this by suffixing every mutation).
func Key(cfg core.Config) string {
	return fmt.Sprintf("%s|%s|s%d|i%d",
		cfg.Name, cfg.Workload.Abbr, cfg.Seed, cfg.Workload.InstrsPerWarp)
}

// Pool executes runs through a bounded set of workers with memoization,
// panic isolation and checkpointing. All methods are safe for concurrent
// use.
type Pool struct {
	ctx  context.Context
	opts Options

	// slots holds the idle worker slots, Jobs in all: taking one is the
	// pool's admission to run, and each slot's memory is the Systems its
	// last run finished (core.Slot), which its next run is built into.
	slots chan *core.Slot

	replay ReplayStats // what resume found besides valid records; set by New

	mu       sync.Mutex
	cache    map[string]Outcome
	inflight map[string]*flight
	executed int
	records  int // durable outcomes: replayed plus published since

	// jmu serializes journal appends and Close. It is never held with mu,
	// so an fsync stalls neither claims nor cache hits.
	jmu     sync.Mutex
	journal *Journal
	wounded atomic.Bool // the last journal append failed

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
	if opts.Run != nil || opts.RunLanes != nil {
		// A hook may wrap every run, so runs do not mix the two paths: the
		// entry point left unset goes through core's default.
		if opts.Run == nil {
			opts.Run = core.Run
		}
		if opts.RunLanes == nil {
			opts.RunLanes = core.RunLanes
		}
	}
	p := &Pool{
		ctx:      ctx,
		opts:     opts,
		slots:    make(chan *core.Slot, opts.Jobs),
		cache:    make(map[string]Outcome),
		inflight: make(map[string]*flight),
	}
	for i := 0; i < opts.Jobs; i++ {
		p.slots <- &core.Slot{}
	}
	if opts.Checkpoint != "" {
		if opts.Resume {
			recs, stats, err := LoadJournalFS(opts.FS, opts.Checkpoint)
			if err != nil {
				return nil, err
			}
			p.replay = stats
			p.records = len(recs)
			for _, rec := range recs {
				p.cache[rec.Key] = Outcome{Key: rec.Key, Result: rec.Result, Resumed: true}
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

// Do executes (or recalls) every config and blocks until each outcome is
// terminal; outs[i] corresponds to cfgs[i], and a single config is a batch
// of one. The batch always goes through the sweep planner (Planner.Plan),
// which orders it so the seed replicas of one configuration sit together
// and picks each group's lane width. Then:
//
//  1. each group is cut into chunks of its width;
//  2. each chunk claims its keys: a cache hit settles at once, and a key
//     already in flight (elsewhere or earlier in the batch) is left
//     over;
//  3. each chunk runs on one worker slot: a chunk of one is one solo run,
//     a wider chunk is one RunLanes call whose lanes advance round-robin
//     in one goroutine;
//  4. every outcome passes through publish;
//  5. the leftovers settle solo, joining any run of their key still in
//     flight.
//
// Every member keeps its solo identity end to end: its own Key, flight,
// cache entry, journal record and Outcome, bit-identical to what a solo run
// produces. So neither the plan nor the lane width changes a result.
//
// ctx bounds the call — the service daemon's end-to-end request deadline.
// Runs execute under the pool context, but every caller waiting on a key
// holds a stake in its flight: when ctx dies the caller gets a "canceled"
// outcome at once, and when the last interested caller is gone the run
// itself is cancelled (a disconnected client must not keep burning a
// worker). Such an outcome is transient: returned, but neither cached,
// journaled nor counted as executed, so a later request re-executes the
// run. Pool-context cancellation (harness shutdown) instead caches the
// canceled outcome so sweep summaries can render it.
func (p *Pool) Do(ctx context.Context, cfgs ...core.Config) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]Outcome, len(cfgs))
	pl := Planner{Jobs: p.opts.Jobs}
	plan := pl.Plan(cfgs)

	var chunks [][]int
	var left []int
	for j, i := range plan.Order {
		n := len(chunks)
		switch {
		case j == 0 || !samePlanGroup(&cfgs[plan.Order[j-1]], &cfgs[i]):
			chunks = append(chunks, []int{i})
		case cfgs[plan.Order[j-1]].Seed == cfgs[i].Seed:
			left = append(left, i) // the same key twice: settle from the first
		case len(chunks[n-1]) == plan.Width[j]:
			chunks = append(chunks, []int{i})
		default:
			chunks[n-1] = append(chunks[n-1], i)
		}
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, chunk := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l := p.runChunk(ctx, cfgs, chunk, outs); len(l) > 0 {
				mu.Lock()
				left = append(left, l...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, i := range left {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.settle(ctx, cfgs, i, outs)
		}()
	}
	wg.Wait()
	return outs
}

// claim is one key's stake in a chunk: its index in the caller's cfgs, its
// cache key, and the flight registered for it.
type claim struct {
	idx int
	key string
	fl  *flight
}

// runChunk claims, executes and publishes one chunk of same-group configs,
// writing every settled outcome into outs. It returns the leftovers: keys
// already in flight.
func (p *Pool) runChunk(ctx context.Context, cfgs []core.Config, chunk []int, outs []Outcome) (left []int) {
	if ctx.Err() != nil {
		for _, i := range chunk {
			outs[i] = canceledOutcome(cfgs[i], Key(cfgs[i]), ctx.Err())
		}
		return nil
	}
	runCtx, cancel := context.WithCancel(p.ctx)
	defer cancel()

	var claims []claim
	p.mu.Lock()
	for _, i := range chunk {
		key := Key(cfgs[i])
		if out, ok := p.cache[key]; ok {
			out.Cached = true
			outs[i] = out
		} else if _, ok := p.inflight[key]; ok {
			left = append(left, i)
		} else {
			fl := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
			p.inflight[key] = fl
			claims = append(claims, claim{idx: i, key: key, fl: fl})
		}
	}
	p.mu.Unlock()
	if len(claims) == 0 {
		return left
	}

	// The caller's context dying withdraws its stake in every claimed
	// flight. The flights share one cancel, so the chunk aborts when ANY
	// claimed key loses its last waiter — lanes advance in lockstep and
	// cannot be cancelled individually; an aborted lane's verdict is
	// transient and re-executes on the next request.
	stop := context.AfterFunc(ctx, func() {
		for _, c := range claims {
			p.abandon(c.fl)
		}
	})
	defer stop()

	var results []Outcome
	select {
	case slot := <-p.slots:
		if runCtx.Err() == nil {
			results = p.execute(runCtx, slot, cfgs, claims)
		}
		p.slots <- slot
	case <-runCtx.Done():
	}
	for j, c := range claims {
		out := canceledOutcome(cfgs[c.idx], c.key, runCtx.Err())
		if results != nil {
			out = results[j]
		}
		outs[c.idx] = p.publish(runCtx, c, out)
	}
	return left
}

// settle resolves one leftover as a solo chunk. While its key is in flight
// it waits as one more stake in that flight, then claims again: the landed
// outcome is a cache hit, and a transient gap re-executes.
func (p *Pool) settle(ctx context.Context, cfgs []core.Config, i int, outs []Outcome) {
	key := Key(cfgs[i])
	for {
		p.mu.Lock()
		fl := p.inflight[key]
		if fl != nil {
			fl.waiters++
		}
		p.mu.Unlock()
		if fl != nil {
			select {
			case <-fl.done:
			case <-ctx.Done():
				p.abandon(fl)
				outs[i] = canceledOutcome(cfgs[i], key, ctx.Err())
				return
			}
		}
		if len(p.runChunk(ctx, cfgs, []int{i}, outs)) == 0 {
			return
		}
	}
}

// execute runs the claimed configs on the worker slot the caller holds: one
// claim is one solo run, several are one lane batch. The claims share
// a lane group, so the first config stands for all of them but its seed.
func (p *Pool) execute(ctx context.Context, slot *core.Slot, cfgs []core.Config, claims []claim) []Outcome {
	cfg := cfgs[claims[0].idx]
	if len(claims) == 1 {
		res, err, stack := p.runOnce(ctx, slot, cfg)
		return []Outcome{{Key: claims[0].key, Result: res, Err: err, Stack: stack}}
	}
	seeds := make([]uint64, len(claims))
	for j, c := range claims {
		seeds[j] = cfgs[c.idx].Seed
	}
	results, errs, stack := p.runLanesOnce(ctx, slot, cfg, seeds)
	outs := make([]Outcome, len(claims))
	for j, c := range claims {
		outs[j] = Outcome{Key: c.key, Result: results[j], Err: errs[j], Stack: stack}
	}
	return outs
}

// publish is the one pipeline every claimed outcome passes through, solo or
// lane: transient classification, the durability gate (the journal append),
// cache, the executed count and OnDone. It closes the claim's flight and
// returns the published outcome (a refused append rewrites it to
// "io_error").
func (p *Pool) publish(runCtx context.Context, c claim, out Outcome) Outcome {
	transient := (out.Result.Status == core.StatusCanceled || out.Result.Status == core.StatusTimeout) &&
		runCtx.Err() != nil && p.ctx.Err() == nil

	// Durability gate: a durable outcome must be journaled BEFORE it is
	// published to the cache, so the pool never serves from memory a result
	// that would not survive a restart. A refused append turns the outcome
	// into an uncached "io_error": the caller sees the degradation, and a
	// later request re-executes the run. "canceled" runs are not finished
	// (the sweep is shutting down) and "timeout" verdicts are host-transient,
	// so neither is durable: both re-execute on resume.
	cached := !transient
	durable := !transient && out.Result.Status != core.StatusCanceled && out.Result.Status != core.StatusTimeout
	if durable {
		if err := p.persist(out); err != nil {
			out.Result.Status, out.Err = StatusIOError, err
			cached, durable = false, false
		}
	}

	p.mu.Lock()
	if !transient {
		p.executed++
	}
	if cached {
		p.cache[c.key] = out
	}
	if durable {
		p.records++
	}
	delete(p.inflight, c.key)
	p.mu.Unlock()
	close(c.fl.done)

	if p.opts.OnDone != nil {
		p.cbMu.Lock()
		p.opts.OnDone(out)
		p.cbMu.Unlock()
	}
	return out
}

// runLanesOnce executes one lane batch on slot (or through the RunLanes
// hook) with panic isolation and the per-run deadline scaled by the batch
// width (one loop carries len(seeds) runs' worth of work). Result identity
// backfill mirrors runOnce, per lane.
func (p *Pool) runLanesOnce(ctx context.Context, slot *core.Slot, cfg core.Config, seeds []uint64) (results []core.Result, errs []error, stack string) {
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
				results[i] = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: StatusPanic}
				errs[i] = err
			}
		}
	}()
	if p.hooked() {
		results, errs = p.opts.RunLanes(ctx, cfg, seeds)
	} else {
		results, errs = slot.RunLanes(ctx, cfg, seeds)
	}
	for i := range results {
		results[i] = backfill(results[i], errs[i], cfg)
	}
	return results, errs, ""
}

// runOnce executes one run on slot (or through the Run hook) with the
// per-run deadline and panic isolation. A panic becomes a "panic" DNF with
// the stack attached, and the slot drops its spares; an error outside the
// typed vocabulary (e.g. an invalid configuration) becomes a DNF whose
// Status carries the message.
func (p *Pool) runOnce(ctx context.Context, slot *core.Slot, cfg core.Config) (res core.Result, err error, stack string) {
	if p.opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.RunTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			stack = string(debug.Stack())
			err = fmt.Errorf("runner: run %s/%s panicked: %v", cfg.Name, cfg.Workload.Abbr, r)
			res = core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: StatusPanic}
		}
	}()
	if p.hooked() {
		res, err = p.opts.Run(ctx, cfg)
	} else {
		res, err = slot.Run(ctx, cfg)
	}
	return backfill(res, err, cfg), err, ""
}

// hooked reports whether the entry points are hooks (New sets both or
// neither) rather than the worker slots.
func (p *Pool) hooked() bool { return p.opts.Run != nil }

// backfill fills a result's identity from cfg where the run left it blank,
// and promotes an error outside the verdict vocabulary into Status.
func backfill(res core.Result, err error, cfg core.Config) core.Result {
	if res.Benchmark == "" {
		res.Benchmark = cfg.Workload.Abbr
	}
	if res.Config == "" {
		res.Config = cfg.Name
	}
	if err != nil && res.OK() {
		res.Status = err.Error()
	}
	return res
}

func canceledOutcome(cfg core.Config, key string, err error) Outcome {
	return Outcome{
		Key:    key,
		Result: core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: core.StatusCanceled},
		Err:    err,
	}
}

// persist appends and fsyncs one durable outcome to the checkpoint journal
// (a no-op for a memory-only pool). A failure marks the pool wounded until
// an append succeeds again; the journal heals itself on that append.
func (p *Pool) persist(out Outcome) error {
	if p.opts.Checkpoint == "" {
		return nil
	}
	p.jmu.Lock()
	defer p.jmu.Unlock()
	if p.journal == nil {
		return errors.New("runner: checkpoint journal is closed")
	}
	iofault.Crashpoint(iofault.CPPublishBeforeAppend)
	if err := p.journal.Append(Record{Key: out.Key, Result: out.Result}); err != nil {
		p.wounded.Store(true)
		return err
	}
	p.wounded.Store(false)
	iofault.Crashpoint(iofault.CPPublishAfterAppend)
	return nil
}

// Executed returns how many simulations this pool actually ran (cache hits
// and resumed runs excluded).
func (p *Pool) Executed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed
}

// Replay returns what resume found in the journal besides valid records:
// torn lines skipped, corrupt records quarantined, a sidecar write error.
func (p *Pool) Replay() ReplayStats { return p.replay }

// Records returns how many durable outcomes the pool holds: the ones resume
// replayed plus the ones published since. Memory-only pools count them too.
func (p *Pool) Records() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.records
}

// Wounded reports whether the last journal append failed. It reads an
// atomic, so a readiness probe never waits behind an fsync.
func (p *Pool) Wounded() bool { return p.wounded.Load() }

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

// Close flushes and closes the checkpoint journal. A refused append was
// already returned as its run's "io_error" outcome, so Close reports only
// its own failure.
func (p *Pool) Close() error {
	p.jmu.Lock()
	defer p.jmu.Unlock()
	if p.journal == nil {
		return nil
	}
	err := p.journal.Close()
	p.journal = nil
	return err
}
