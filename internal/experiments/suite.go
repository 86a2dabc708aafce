// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each FigNN/TableNN method returns a Report containing a
// printable table plus summary lines comparing the paper's headline numbers
// with the measured ones.
//
// Simulations execute through a resilient worker pool (internal/runner):
// figures warm the pool in parallel, then render serially from the
// memoized results, so tables are byte-identical for any -jobs value and
// figures sharing a configuration (e.g. the baseline) reuse each other's
// simulations. Degraded runs — hangs, wall-clock timeouts, panics —
// surface as DNF rows instead of aborting the sweep, and a checkpoint
// journal lets an interrupted sweep resume without re-running finished
// simulations.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options configures a Suite.
type Options struct {
	// Scale multiplies kernel length; 1.0 is the calibrated default.
	// Values below ~0.5 trade accuracy for speed (tests use ~0.2).
	Scale float64
	// Progress, when non-nil, receives one line per completed run. With
	// more than one worker the line order is nondeterministic; the
	// rendered tables never are.
	Progress io.Writer
	// Benchmarks restricts the suite to the given abbreviations (all 31
	// when empty).
	Benchmarks []string
	// Jobs bounds concurrent simulations; 0 means GOMAXPROCS. Tables are
	// byte-identical for any value: figures render serially from the
	// memoized results.
	Jobs int
	// Seeds lists the traffic seeds for figures that average over seed
	// replicas (resilience). The replicas differ only in Seed, so the
	// pool's planner runs each set as lane batches. Empty keeps every
	// builder's own seed — single-seed tables stay byte-identical.
	Seeds []uint64
	// RunTimeout is the per-run wall-clock deadline; a run that exceeds
	// it becomes a "timeout" DNF row. 0 disables the deadline.
	RunTimeout time.Duration
	// Checkpoint is the JSONL journal path recording each finished run;
	// empty disables checkpointing.
	Checkpoint string
	// Resume preloads the Checkpoint journal and skips finished runs.
	Resume bool
	// Context cancels the whole sweep (SIGINT handling in the CLIs);
	// nil means context.Background().
	Context context.Context
}

// Report is one regenerated experiment.
type Report struct {
	ID      string
	Title   string
	Table   *stats.Table
	Summary []string // "paper ... / measured ..." comparison lines
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "---- %s: %s ----\n", r.ID, r.Title)
	b.WriteString(r.Table.String())
	for _, s := range r.Summary {
		b.WriteString("  " + s + "\n")
	}
	return b.String()
}

// Suite runs and caches the experiments. Every simulation goes through a
// runner.Pool, which supplies the worker pool, per-run deadlines, panic
// isolation and the checkpoint journal.
type Suite struct {
	opts     Options
	bench    []workload.Profile
	pool     *runner.Pool
	frontier *explore.Frontier // last Explore result (nil before any)

	// requests counts the configurations asked of the pool, executed or
	// served from its memo table alike.
	requests atomic.Int64

	mu         sync.Mutex
	notDurable map[string]runner.Outcome // io_error runs not since re-executed, by key
}

// New builds a suite.
func New(opts Options) (*Suite, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	all := workload.Catalog()
	var bench []workload.Profile
	if len(opts.Benchmarks) == 0 {
		bench = all
	} else {
		for _, abbr := range opts.Benchmarks {
			p, err := workload.ByAbbr(abbr)
			if err != nil {
				return nil, err
			}
			bench = append(bench, p)
		}
	}
	s := &Suite{opts: opts, bench: bench, notDurable: make(map[string]runner.Outcome)}
	pool, err := runner.New(opts.Context, runner.Options{
		Jobs:       opts.Jobs,
		RunTimeout: opts.RunTimeout,
		Checkpoint: opts.Checkpoint,
		Resume:     opts.Resume,
		OnDone:     s.report,
	})
	if err != nil {
		return nil, err
	}
	s.pool = pool
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(opts Options) *Suite {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Benchmarks returns the profiles the suite runs.
func (s *Suite) Benchmarks() []workload.Profile { return s.bench }

// report is the pool's serialized completion callback: one progress line
// per freshly executed run. It fires only for real executions, never for
// cache hits or checkpoint-resumed results. It also remembers the runs the
// journal refused: an "io_error" outcome is never cached, so DNF lists it
// from here until a later execution of the same key supersedes it.
func (s *Suite) report(out runner.Outcome) {
	s.mu.Lock()
	if out.Result.Status == runner.StatusIOError {
		s.notDurable[out.Key] = out
	} else {
		delete(s.notDurable, out.Key)
	}
	s.mu.Unlock()
	if s.opts.Progress == nil {
		return
	}
	r := out.Result
	if !out.OK() {
		fmt.Fprintf(s.opts.Progress, "DNF %-16s %-4s %s\n", r.Config, r.Benchmark, r.Status)
		if out.Stack != "" {
			fmt.Fprintln(s.opts.Progress, out.Stack)
		}
		return
	}
	fmt.Fprintf(s.opts.Progress, "ran %-16s %-4s IPC=%.1f\n", r.Config, r.Benchmark, r.IPC)
}

// run executes (or recalls) one closed-loop simulation. A degraded run
// (cycle cap, deadlock, timeout, panic, or any unexpected error)
// does not abort the suite: the partial result comes back with its Status
// set and is listed by DNF, so the remaining benchmarks still run and the
// report marks the failure.
//
// The sweep's cancellation reaches the run through the pool's context, not
// the call's: a run cut short by SIGINT then lands in the cache as a
// "canceled" outcome, which the interrupt summary counts.
func (s *Suite) run(cfg core.Config) core.Result {
	s.requests.Add(1)
	return s.pool.Do(context.Background(), cfg.ScaleWork(s.opts.Scale))[0].Result
}

// runAll warms the result cache with one pool batch: the pool's planner
// coalesces same-configuration/different-seed replicas into lane batches
// and orders groups for cache/journal locality. Figures call it (directly
// or via prefetch) before their serial rendering loops, which then hit the
// cache; planning is order-insensitive and lanes are bit-identical to solo
// runs, so rendering order — and thus table bytes — is independent of the
// worker count, the lane width and the plan.
func (s *Suite) runAll(cfgs []core.Config) {
	scaled := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		scaled[i] = c.ScaleWork(s.opts.Scale)
	}
	s.requests.Add(int64(len(scaled)))
	s.pool.Do(s.opts.Context, scaled...)
}

// seedReplicas expands cfg into one copy per suite seed. The replicas share
// a lane group — only Seed differs — so the planner runs the set as lane
// batches. With no seed list the builder's own seed rides through untouched.
func (s *Suite) seedReplicas(cfg core.Config) []core.Config {
	if len(s.opts.Seeds) == 0 {
		return []core.Config{cfg}
	}
	out := make([]core.Config, len(s.opts.Seeds))
	for i, seed := range s.opts.Seeds {
		c := cfg
		c.Seed = seed
		out[i] = c
	}
	return out
}

// runSeeds executes (or recalls) cfg's replica set and returns the per-seed
// results in seed-list order.
func (s *Suite) runSeeds(cfg core.Config) []core.Result {
	reps := s.seedReplicas(cfg)
	out := make([]core.Result, len(reps))
	for i, c := range reps {
		out[i] = s.run(c)
	}
	return out
}

// builder returns the Build of the core.DesignPoints row called name.
func builder(name string) func(workload.Profile) core.Config {
	d, ok := core.DesignPointNamed(name)
	if !ok {
		panic("experiments: no design point " + name)
	}
	return d.Build
}

// prefetch warms the cache for every (benchmark × builder) combination.
func (s *Suite) prefetch(builders ...func(workload.Profile) core.Config) {
	cfgs := make([]core.Config, 0, len(s.bench)*len(builders))
	for _, p := range s.bench {
		for _, b := range builders {
			cfgs = append(cfgs, b(p))
		}
	}
	s.runAll(cfgs)
}

// DNF lists the degraded runs as "config|bench: status" lines, sorted,
// including the runs the checkpoint journal refused ("io_error").
func (s *Suite) DNF() []string {
	outs := s.pool.Outcomes()
	s.mu.Lock()
	for _, o := range s.notDurable {
		outs = append(outs, o)
	}
	s.mu.Unlock()
	var out []string
	for _, o := range outs {
		if o.OK() {
			continue
		}
		out = append(out, fmt.Sprintf("%s|%s: %s", o.Result.Config, o.Result.Benchmark, o.Result.Status))
	}
	sort.Strings(out)
	return out
}

// Outcomes snapshots every terminal run outcome (sorted by key).
func (s *Suite) Outcomes() []runner.Outcome { return s.pool.Outcomes() }

// Executed returns how many simulations actually ran in this process
// (cache hits and checkpoint-resumed runs excluded).
func (s *Suite) Executed() int { return s.pool.Executed() }

// Requests returns how many run configurations the suite has asked of its
// pool, each repeat and each render-time recall of a prefetched batch
// included; Requests minus Executed is the runs the memo table or the
// checkpoint journal served.
func (s *Suite) Requests() int { return int(s.requests.Load()) }

// SkippedJournalLines returns how many torn trailing checkpoint lines
// resume ignored (an interrupted final append; at most one).
func (s *Suite) SkippedJournalLines() int { return s.pool.Replay().Skipped }

// QuarantinedJournalLines returns how many corrupt checkpoint records
// resume moved to the .corrupt sidecar (CRC mismatch, bad framing, or
// invalid JSON anywhere in the file).
func (s *Suite) QuarantinedJournalLines() int { return s.pool.Replay().Quarantined }

// Close flushes and closes the checkpoint journal.
func (s *Suite) Close() error { return s.pool.Close() }

// speedups computes per-benchmark IPC ratios between two config builders.
// Both sides are warmed through the worker pool first; benchmarks where
// either side did not finish are skipped, since a DNF's partial IPC would
// corrupt the harmonic-mean aggregates.
func (s *Suite) speedups(baseCfg, newCfg func(workload.Profile) core.Config) map[string]float64 {
	s.prefetch(baseCfg, newCfg)
	out := make(map[string]float64, len(s.bench))
	for _, p := range s.bench {
		base := s.run(baseCfg(p))
		alt := s.run(newCfg(p))
		if !base.OK() || !alt.OK() {
			continue
		}
		out[p.Abbr] = alt.IPC / base.IPC
	}
	return out
}

// hm aggregates a speedup map with the paper's harmonic mean. Ratios
// polluted by degraded runs (zero, negative or non-finite) are skipped:
// HarmonicMean has no value for them, and a DNF row must not abort the
// figure that reports it.
func hm(ratios map[string]float64, only func(abbr string) bool) float64 {
	var vs []float64
	for abbr, r := range ratios {
		if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			continue
		}
		if only == nil || only(abbr) {
			vs = append(vs, r)
		}
	}
	return stats.HarmonicMean(vs)
}

// orderedAbbrs returns benchmark abbreviations in Table I / Fig 7 order.
func (s *Suite) orderedAbbrs() []string {
	out := make([]string, len(s.bench))
	for i, p := range s.bench {
		out[i] = p.Abbr
	}
	return out
}

// classOf returns the measured traffic class for a benchmark using the
// §III-B rule: first letter from the perfect-network speedup (>30% = H),
// second from accepted traffic under the perfect network (>1 B/cycle/node).
func classOf(speedup float64, acceptedBytes float64) string {
	first, second := "L", "L"
	if speedup > 1.30 {
		first = "H"
	}
	if acceptedBytes > 1.0 {
		second = "H"
	}
	return first + second
}

// paperClassOf returns the class Table I/Fig 7 assigns.
func paperClassOf(abbr string) string {
	p, err := workload.ByAbbr(abbr)
	if err != nil {
		return "?"
	}
	return p.Class
}

func isClass(class string) func(string) bool {
	return func(abbr string) bool { return paperClassOf(abbr) == class }
}

// pct renders a speedup ratio. Real IPC/latency ratios are strictly
// positive; zero only reaches here when every contributing run was a DNF
// (e.g. an empty harmonic mean), which must read as missing data, not
// as a -100% slowdown.
func pct(ratio float64) string {
	if ratio <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(ratio-1))
}
