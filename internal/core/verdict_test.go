package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/iofault"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/workload"
)

// verdictCap is the cycle cap of the ok row and the lost-request mutant:
// about 5x the 392 interconnect cycles the clean run takes.
const verdictCap = 2_000

// loseOneRead is an MC that loses one request: it swallows the first read
// request the network delivers, so no reply ever comes back for it.
type loseOneRead struct {
	noc.Network
	lost bool
}

func (l *loseOneRead) Delivered() []*noc.Packet {
	batch := l.Network.Delivered()
	if l.lost {
		return batch
	}
	for i, p := range batch {
		if p.Class == noc.ClassRequest && !p.Write {
			l.lost = true
			return append(batch[:i], batch[i+1:]...)
		}
	}
	return batch
}

// misdeliver hands the first reply a compute node receives over as a
// request, a delivery the closed loop treats as a simulator bug.
type misdeliver struct{ noc.Network }

func (m misdeliver) Delivered() []*noc.Packet {
	batch := m.Network.Delivered()
	for _, p := range batch {
		if p.Class == noc.ClassReply {
			p.Class = noc.ClassRequest
		}
	}
	return batch
}

// runWrapped runs cfg with its network wrapped by wrap.
func runWrapped(ctx context.Context, cfg core.Config, wrap func(noc.Network) noc.Network) (core.Result, error) {
	s, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	s.WrapNetwork(wrap)
	return s.Run(ctx)
}

// poolOutcome submits cfg to a fresh one-worker pool built with opts and
// returns the outcome. arm runs once the pool is built (and its journal
// opened), before the run.
func poolOutcome(t *testing.T, opts runner.Options, arm func(), cfg core.Config) runner.Outcome {
	t.Helper()
	opts.Jobs = 1
	p, err := runner.New(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	arm()
	return p.Do(context.Background(), cfg)[0]
}

// TestEveryVerdictReachable reaches every status a run can end in with the
// smallest configuration or injected condition found, through core.Run or
// the runner's pool, and pins the status text and the kind of the
// diagnostic it carries. The lost-request mutant is an MC that never
// answers one read: the network goes quiet rather than wedged, so its
// watchdog stays silent and the cycle cap ends the run. A verdict no row
// reaches has no business in the vocabulary.
func TestEveryVerdictReachable(t *testing.T) {
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	base := core.Baseline(bin).ScaleWork(0.01)
	bg := context.Background()

	clean := base
	clean.MaxIcntCycles = verdictCap
	capped := base
	capped.MaxIcntCycles = 300
	deadlock := base.WithFaults(0.05, 3).WithWatchdog(500)
	deadlock.Noc.Fault.RetxTimeout = 1000
	mutant := clean.WithWatchdog(500)

	for _, row := range []struct {
		name, status, kind string
		run                func(t *testing.T) (string, error)
	}{
		{core.StatusOK, core.StatusOK, "", func(t *testing.T) (string, error) {
			res, err := core.Run(bg, clean)
			return res.Status, err
		}},
		{core.StatusCycleCap, core.StatusCycleCap, "cycle-cap", func(t *testing.T) (string, error) {
			res, err := core.Run(bg, capped)
			return res.Status, err
		}},
		{core.StatusDeadlock, core.StatusDeadlock, "deadlock", func(t *testing.T) (string, error) {
			res, err := core.Run(bg, deadlock)
			return res.Status, err
		}},
		// The audit runs every WatchdogCycles/4 cycles. One flit added to
		// the injection books stands for a flit the network lost.
		{core.StatusInvariant, core.StatusInvariant, "invariant", func(t *testing.T) (string, error) {
			s, err := core.NewSystem(base.WithWatchdog(500))
			if err != nil {
				t.Fatal(err)
			}
			s.NetStats().InjectedFlits[0]++
			res, err := s.Run(bg)
			return res.Status, err
		}},
		{core.StatusTimeout, core.StatusTimeout, "timeout", func(t *testing.T) (string, error) {
			ctx, cancel := context.WithTimeout(bg, 0)
			defer cancel()
			res, err := core.Run(ctx, base)
			return res.Status, err
		}},
		{core.StatusCanceled, core.StatusCanceled, "canceled", func(t *testing.T) (string, error) {
			ctx, cancel := context.WithCancel(bg)
			cancel()
			res, err := core.Run(ctx, base)
			return res.Status, err
		}},
		{runner.StatusPanic, runner.StatusPanic, "", func(t *testing.T) (string, error) {
			out := poolOutcome(t, runner.Options{Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
				return runWrapped(ctx, cfg, func(n noc.Network) noc.Network { return misdeliver{n} })
			}}, func() {}, base)
			if out.Stack == "" || out.Err == nil || !strings.Contains(out.Err.Error(), "non-reply packet") {
				t.Errorf("panic outcome %v, stack %d bytes: want the misdelivery and its stack", out.Err, len(out.Stack))
			}
			return out.Result.Status, out.Err
		}},
		{runner.StatusIOError, runner.StatusIOError, "", func(t *testing.T) (string, error) {
			ff := iofault.NewFaultFS(nil)
			out := poolOutcome(t, runner.Options{Checkpoint: filepath.Join(t.TempDir(), "runs.jsonl"), FS: ff},
				func() { ff.Inject(iofault.Fault{Op: "write", Err: syscall.ENOSPC, Count: -1}) }, base)
			return out.Result.Status, out.Err
		}},
		{"lost-request", core.StatusCycleCap, "cycle-cap", func(t *testing.T) (string, error) {
			lose := &loseOneRead{}
			res, err := runWrapped(bg, mutant, func(n noc.Network) noc.Network {
				lose.Network = n
				return lose
			})
			if !lose.lost {
				t.Error("the mutant delivered every request")
			}
			return res.Status, err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			status, err := row.run(t)
			if status != row.status {
				t.Fatalf("status %q (error %v), want %q", status, err, row.status)
			}
			kind := ""
			var he *fault.HangError
			if errors.As(err, &he) {
				kind = he.Diag.Kind
			}
			if kind != row.kind {
				t.Errorf("diagnostic kind %q (error %v), want %q", kind, err, row.kind)
			}
			if (row.status == core.StatusOK) != (err == nil) {
				t.Errorf("status %q with error %v", status, err)
			}
		})
	}
}
