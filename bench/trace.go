package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iofault"
	"repro/internal/noc"
	"repro/internal/runner"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a run key, a request, an open-loop point) share Op; Parent is
// the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and seam counters in memory for the traced passes. A
// nil *tracer is the plain run: every method is a no-op that reads no
// clock, and the seam constructors below return nil so the layers run
// undecorated.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	pass  int // traced pass in progress; makes operation IDs unique per pass
	root  int // span a hook's span hangs under when no span of its operation is open

	soloRuns   int
	laneWidths []int

	netTicks, netSkipped        uint64
	netTimedTicks, netTimedInjs uint64 // the calls that were timed
	netTickNS, netInjectNS      int64

	fsSyncs int
	fsBytes int64
	fsSync  []float64 // ms per fsync
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextPass starts a new traced pass.
func (t *tracer) nextPass() {
	if t != nil {
		t.pass++
	}
}

// opID names an operation of the current pass.
func (t *tracer) opID(key string) string {
	if t == nil {
		return key
	}
	return fmt.Sprintf("p%d|%s", t.pass, key)
}

// setRoot names the span that hook spans started from now on descend from.
func (t *tracer) setRoot(id int) {
	if t != nil {
		t.root = id
	}
}

// parentOf finds what caused a hook's span: the open span of the same
// operation (the client's round trip), else the current root.
func (t *tracer) parentOf(op string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Op == op && s.End == 0 {
			return s.ID
		}
	}
	return t.root
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the length in seconds of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// byOp returns the summed length in seconds of name spans per operation.
func (t *tracer) byOp(name string) map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runHook decorates the pool's solo entry point (runner.Options.Run,
// service.Options.Run) with a span and a solo-run count.
func (t *tracer) runHook(name string) runner.RunFunc {
	if t == nil {
		return nil
	}
	return func(ctx context.Context, cfg core.Config) (core.Result, error) {
		op := t.opID(runner.Key(cfg))
		id := t.begin(name, op, t.parentOf(op))
		res, err := core.Run(ctx, cfg)
		t.end(id)
		t.mu.Lock()
		t.soloRuns++
		t.mu.Unlock()
		return res, err
	}
}

// laneHook decorates the pool's lane-batch entry point the same way.
func (t *tracer) laneHook(name string) runner.LaneRunFunc {
	if t == nil {
		return nil
	}
	return func(ctx context.Context, cfg core.Config, seeds []uint64) ([]core.Result, []error) {
		op := t.opID(runner.Key(cfg))
		id := t.begin(name, op, t.parentOf(op))
		res, errs := core.RunLanes(ctx, cfg, seeds)
		t.end(id)
		t.mu.Lock()
		if len(seeds) == 1 { // RunLanes hands a single seed to the solo loop
			t.soloRuns++
		} else {
			t.laneWidths = append(t.laneWidths, len(seeds))
		}
		t.mu.Unlock()
		return res, errs
	}
}

// timedNet decorates a noc.Network at the traffic.NewRunner build seam: it
// counts Tick and TryInject calls and the cycles credited by SkipAhead, and
// times one call in timedEvery, so two clock reads a tick do not become the
// thing the traced run measures. One goroutine drives it, so the counters
// are plain fields flushed by done.
type timedNet struct {
	noc.Network
	t                     *tracer
	ticks, injects, skips uint64
	timedTicks, timedInjs uint64
	tickNS, injectNS      int64
}

const timedEvery = 16

func (n *timedNet) Tick() {
	n.ticks++
	if n.ticks%timedEvery != 0 {
		n.Network.Tick()
		return
	}
	t0 := time.Now()
	n.Network.Tick()
	n.tickNS += time.Since(t0).Nanoseconds()
	n.timedTicks++
}

func (n *timedNet) TryInject(p *noc.Packet) bool {
	n.injects++
	if n.injects%timedEvery != 0 {
		return n.Network.TryInject(p)
	}
	t0 := time.Now()
	ok := n.Network.TryInject(p)
	n.injectNS += time.Since(t0).Nanoseconds()
	n.timedInjs++
	return ok
}

func (n *timedNet) SkipAhead(k uint64) {
	n.Network.SkipAhead(k)
	n.skips += k
}

// done folds the decorator's counters into the tracer.
func (n *timedNet) done() {
	n.t.mu.Lock()
	n.t.netTicks += n.ticks
	n.t.netTimedTicks += n.timedTicks
	n.t.netTimedInjs += n.timedInjs
	n.t.netSkipped += n.skips
	n.t.netTickNS += n.tickNS
	n.t.netInjectNS += n.injectNS
	n.t.mu.Unlock()
}

// fs returns the iofault.FS seam decorated to count bytes and time fsyncs,
// or nil (the real filesystem, undecorated) on a plain run.
func (t *tracer) fs() iofault.FS {
	if t == nil {
		return nil
	}
	return countingFS{FS: iofault.OS, t: t}
}

type countingFS struct {
	iofault.FS
	t *tracer
}

func (c countingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, t: c.t}, nil
}

type countingFile struct {
	iofault.File
	t *tracer
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.t.mu.Lock()
	f.t.fsBytes += int64(n)
	f.t.mu.Unlock()
	return n, err
}

func (f countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	f.t.mu.Lock()
	f.t.fsSyncs++
	f.t.fsSync = append(f.t.fsSync, ms)
	f.t.mu.Unlock()
	return err
}
