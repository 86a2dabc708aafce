package runner

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
)

// hookFS is the real filesystem with a hook in front of every file Write
// and Sync: a non-nil error from the hook fails the call before it reaches
// the file. Unlike iofault.FaultFS it can pick a write by its bytes, or
// park a Sync on a channel.
type hookFS struct {
	write func(p []byte) error
	sync  func() error
}

func (h hookFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := iofault.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return hookFile{File: f, fs: h}, nil
}

func (h hookFS) Rename(oldpath, newpath string) error { return iofault.OS.Rename(oldpath, newpath) }
func (h hookFS) Remove(name string) error             { return iofault.OS.Remove(name) }

type hookFile struct {
	iofault.File
	fs hookFS
}

func (f hookFile) Write(p []byte) (int, error) {
	if f.fs.write != nil {
		if err := f.fs.write(p); err != nil {
			return 0, err
		}
	}
	return f.File.Write(p)
}

func (f hookFile) Sync() error {
	if f.fs.sync != nil {
		if err := f.fs.sync(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// TestPersistFailureNotCached is the pool half of the daemon's durability
// contract: an outcome whose journal append fails is returned as a
// non-cached "io_error", is not counted as a record, and a later request
// for the same key re-executes the run; once the fault clears the append
// heals the journal and the outcome is cached like any other.
func TestPersistFailureNotCached(t *testing.T) {
	ff := iofault.NewFaultFS(iofault.OS)
	path := journalPath(t)
	p := newPool(t, Options{Jobs: 1, Run: okRun, Checkpoint: path, FS: ff})
	cfg := testCfg(t, "durable")
	ff.Inject(iofault.Fault{Op: "write", Err: syscall.ENOSPC, Count: -1})

	out := doOne(p, cfg)
	if out.Result.Status != "io_error" {
		t.Fatalf("status under append failure = %q, want io_error", out.Result.Status)
	}
	if !errors.Is(out.Err, syscall.ENOSPC) {
		t.Errorf("outcome Err = %v, want the append's ENOSPC", out.Err)
	}
	if out.Cached || out.Resumed {
		t.Errorf("io_error outcome flagged cached=%v resumed=%v", out.Cached, out.Resumed)
	}
	if !p.Wounded() || p.Records() != 0 {
		t.Errorf("after a refused append: Wounded=%v Records=%d, want true and 0", p.Wounded(), p.Records())
	}

	// The failed outcome must not have been cached: the next request
	// re-executes rather than serving the unpersisted result from memory.
	out = doOne(p, cfg)
	if out.Cached {
		t.Fatal("unpersisted outcome was served from cache")
	}
	if p.Executed() != 2 {
		t.Errorf("Executed = %d after two requests under append failure, want 2", p.Executed())
	}

	// Fault clears: re-execution persists, caches, heals, and later calls hit.
	ff.Clear()
	out = doOne(p, cfg)
	if out.Result.Status != "ok" || out.Cached {
		t.Fatalf("post-heal outcome = status %q cached %v, want fresh ok", out.Result.Status, out.Cached)
	}
	if p.Wounded() || p.Records() != 1 {
		t.Errorf("after the heal: Wounded=%v Records=%d, want false and 1", p.Wounded(), p.Records())
	}
	out = doOne(p, cfg)
	if !out.Cached || out.Result.Status != "ok" {
		t.Errorf("persisted outcome not served from cache: %+v", out)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != Key(cfg) || recs[0].Result.Status != "ok" {
		t.Errorf("journal = %+v, want the one healed ok record", recs)
	}
}

// TestPersistSkipsTransients: canceled and timeout verdicts are not
// durable, so the persist step must never see them. With every journal
// write and fsync refused, a transient outcome keeps its own status instead
// of becoming an io_error, and the pool is not wounded.
func TestPersistSkipsTransients(t *testing.T) {
	for _, status := range []string{"timeout", "canceled"} {
		ff := iofault.NewFaultFS(iofault.OS)
		p := newPool(t, Options{Jobs: 1, Checkpoint: journalPath(t), FS: ff,
			Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
				return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: status}, nil
			}})
		ff.Inject(iofault.Fault{Op: "write", Err: syscall.ENOSPC, Count: -1})
		ff.Inject(iofault.Fault{Op: "sync", Err: syscall.EIO, Count: -1})
		out := doOne(p, testCfg(t, "slow"))
		if out.Result.Status != status || out.Err != nil {
			t.Errorf("%s outcome under a refusing journal = status %q err %v, want %q and nil",
				status, out.Result.Status, out.Err, status)
		}
		if p.Wounded() {
			t.Errorf("%s outcome reached the journal: pool wounded", status)
		}
	}
}

// TestRefusedAppendIsRunOutcomeNotCloseError pins the durability rule for
// checkpointed sweeps: a refused append is reported once, as the run's
// uncached "io_error" outcome (a DNF row), and Close does not report it
// again once the fault has cleared.
func TestRefusedAppendIsRunOutcomeNotCloseError(t *testing.T) {
	ff := iofault.NewFaultFS(iofault.OS)
	p, err := New(context.Background(), Options{Jobs: 1, Run: okRun, Checkpoint: journalPath(t), FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	ff.Inject(iofault.Fault{Op: "sync", Err: syscall.EIO, Count: -1})
	if out := doOne(p, testCfg(t, "sweep")); out.Result.Status != "io_error" {
		t.Fatalf("status under fsync failure = %q, want io_error", out.Result.Status)
	}
	if outs := p.Outcomes(); len(outs) != 0 {
		t.Errorf("refused outcome cached: %+v", outs)
	}
	ff.Clear()
	if err := p.Close(); err != nil {
		t.Errorf("Close after the fault cleared = %v, want nil", err)
	}
}

// TestCacheHitNotBlockedByJournalSync: the journal append runs under its own
// lock, so while one run's fsync is parked a cache hit still returns at once.
func TestCacheHitNotBlockedByJournalSync(t *testing.T) {
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	fs := hookFS{sync: func() error {
		if armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
		return nil
	}}
	p := newPool(t, Options{Jobs: 2, Run: okRun, Checkpoint: journalPath(t), FS: fs})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // runs before the pool's Close

	a, b := testCfg(t, "a"), testCfg(t, "b")
	doOne(p, a)
	armed.Store(true)
	bDone := make(chan Outcome, 1)
	go func() { bDone <- doOne(p, b) }()
	<-parked

	hit := make(chan Outcome, 1)
	go func() { hit <- doOne(p, a) }()
	select {
	case o := <-hit:
		if !o.Cached {
			t.Errorf("second request for A = %+v, want a cache hit", o)
		}
	case <-time.After(time.Second):
		t.Fatal("cache hit blocked behind another run's journal fsync")
	}
	unpark()
	if o := <-bDone; !o.OK() || o.Cached {
		t.Errorf("B = %+v, want a fresh ok run", o)
	}
}

// TestLookupHookServesExternalStore: a record one pool wrote to its journal
// is served by a second pool resumed on the same file without executing,
// and a key the journal lacks still executes.
func TestLookupHookServesExternalStore(t *testing.T) {
	path := journalPath(t)
	cfg := testCfg(t, "stored")
	first := newPool(t, Options{Jobs: 1, Checkpoint: path,
		Run: func(_ context.Context, c core.Config) (core.Result, error) {
			return core.Result{Benchmark: c.Workload.Abbr, Config: c.Name, Status: "ok", IPC: 7}, nil
		}})
	doOne(first, cfg)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	p := newPool(t, Options{Jobs: 2, Checkpoint: path, Resume: true,
		Run: func(ctx context.Context, c core.Config) (core.Result, error) {
			calls.Add(1)
			return okRun(ctx, c)
		}})
	if p.Records() != 1 {
		t.Errorf("Records = %d after replay, want 1", p.Records())
	}
	out := doOne(p, cfg)
	if !out.Resumed || out.Result.IPC != 7 {
		t.Fatalf("stored record not honoured: %+v", out)
	}
	if calls.Load() != 0 {
		t.Errorf("run executed %d times despite the stored record", calls.Load())
	}
	// Misses still execute.
	if out := doOne(p, testCfg(t, "fresh")); out.Resumed || !out.OK() {
		t.Fatalf("store miss mishandled: %+v", out)
	}
	if calls.Load() != 1 {
		t.Errorf("store miss executed %d times, want 1", calls.Load())
	}
}

// failWritesOf fails every journal write carrying key with ENOSPC.
func failWritesOf(key string) hookFS {
	return hookFS{write: func(p []byte) error {
		if bytes.Contains(p, []byte(key)) {
			return syscall.ENOSPC
		}
		return nil
	}}
}
