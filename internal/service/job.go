package service

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"     // all runs reached a terminal verdict
	StatusCanceled = "canceled" // deadline expired or every waiter left
)

// Event is one line of a job's NDJSON progress stream.
type Event struct {
	Seq    int    `json:"seq"`
	TimeMS int64  `json:"time_ms"` // wall clock, unix milliseconds
	Type   string `json:"type"`    // "queued", "started", "run", "done", "canceled"
	Key    string `json:"key,omitempty"`
	Status string `json:"status,omitempty"`
	Done   int    `json:"done,omitempty"`
	Total  int    `json:"total,omitempty"`
	Cached bool   `json:"cached,omitempty"` // served from memory or the store
}

// RunResult is the deterministic per-run payload of a job's result
// document: the run identity and the full simulation result, with no
// timestamps or cache provenance, so the /result document is
// byte-identical across resubmissions, daemon restarts and store replays.
type RunResult struct {
	Key    string      `json:"key"`
	Result core.Result `json:"result"`
}

// ResultDoc is the canonical GET /v1/runs/{id}/result body.
type ResultDoc struct {
	ID   string      `json:"id"`
	Spec Spec        `json:"spec"`
	Runs []RunResult `json:"runs"`
}

// Job is one admitted submission: a set of runs executing on the pool
// under a shared context that carries the job's end-to-end deadline.
type Job struct {
	ID   string
	Spec Spec

	cfgs   []core.Config
	ctx    context.Context
	cancel context.CancelFunc

	// syncOwned marks a job created by a wait=true request: when its last
	// watcher disconnects before completion, the job is cancelled (nobody
	// is left to receive the result). Async jobs run to completion
	// regardless.
	syncOwned bool

	mu       sync.Mutex
	status   string
	reason   string // why the job was canceled, for the status document
	outs     []runner.Outcome
	doneRuns int
	watchers int
	events   []Event
	bump     chan struct{} // closed and replaced on every event append
	done     chan struct{}
	created  time.Time
	finished time.Time
}

func newJob(id string, spec Spec, cfgs []core.Config, ctx context.Context, cancel context.CancelFunc, syncOwned bool) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		cfgs:      cfgs,
		ctx:       ctx,
		cancel:    cancel,
		syncOwned: syncOwned,
		status:    StatusQueued,
		outs:      make([]runner.Outcome, len(cfgs)),
		bump:      make(chan struct{}),
		done:      make(chan struct{}),
		created:   time.Now(),
	}
	j.appendEvent(Event{Type: "queued", Total: len(cfgs)})
	return j
}

// appendEvent records an event and wakes stream followers. Callers
// must NOT hold j.mu.
func (j *Job) appendEvent(ev Event) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

func (j *Job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.TimeMS = time.Now().UnixMilli()
	j.events = append(j.events, ev)
	close(j.bump)
	j.bump = make(chan struct{})
}

// start flips the job to running.
func (j *Job) start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.mu.Unlock()
	j.appendEvent(Event{Type: "started", Total: len(j.cfgs)})
}

// finishRun records one run's terminal outcome.
func (j *Job) finishRun(i int, out runner.Outcome) {
	j.mu.Lock()
	j.outs[i] = out
	j.doneRuns++
	done, total := j.doneRuns, len(j.cfgs)
	j.mu.Unlock()
	j.appendEvent(Event{
		Type: "run", Key: out.Key, Status: statusLabel(out.Result.Status),
		Done: done, Total: total, Cached: out.Cached || out.Resumed,
	})
}

// finish settles the job's terminal status once every run has returned.
func (j *Job) finish() {
	status, reason := StatusDone, ""
	if err := j.ctx.Err(); err != nil {
		status = StatusCanceled
		if err == context.DeadlineExceeded {
			reason = "deadline exceeded"
		} else {
			reason = "canceled"
		}
	}
	// Status flip and terminal event land under one lock so that any
	// eventsSince observing a terminal status is guaranteed to already
	// hold the final event — stream followers rely on that to know when
	// the NDJSON stream can end.
	j.mu.Lock()
	j.status = status
	j.reason = reason
	j.finished = time.Now()
	j.appendEventLocked(Event{Type: eventForStatus(status), Status: reason, Done: j.doneRuns, Total: len(j.cfgs)})
	j.mu.Unlock()
	close(j.done)
}

// ephemeral reports whether the job's terminal verdict must not be
// pinned by content addressing: canceled jobs and jobs holding
// non-durable io_error outcomes are replaced on re-submission, so a
// transient disk fault (or an impatient client) never freezes a spec's
// result forever. Running jobs are never ephemeral — the live job is
// always joined, not replaced.
func (j *Job) ephemeral() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusCanceled:
		return true
	case StatusDone:
		for _, out := range j.outs {
			if out.Result.Status == runner.StatusIOError {
				return true
			}
		}
	}
	return false
}

func eventForStatus(status string) string {
	if status == StatusCanceled {
		return "canceled"
	}
	return "done"
}

func statusLabel(s string) string {
	if s == "" {
		return core.StatusOK
	}
	return s
}

// watch registers interest in the job (a waiting submit or an event
// stream); unwatch withdraws it, cancelling a sync-owned job when the
// last watcher disconnects before completion.
func (j *Job) watch() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

func (j *Job) unwatch() {
	j.mu.Lock()
	j.watchers--
	abandon := j.syncOwned && j.watchers <= 0 && j.status != StatusDone && j.status != StatusCanceled
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// snapshot returns the volatile status document fields under one lock.
func (j *Job) snapshot() (status, reason string, doneRuns int, outs []runner.Outcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	outs = make([]runner.Outcome, len(j.outs))
	copy(outs, j.outs)
	return j.status, j.reason, j.doneRuns, outs
}

// eventsSince returns the events past seq, plus the channel that will be
// closed on the next append and whether the job is terminal.
func (j *Job) eventsSince(seq int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	terminal := j.status == StatusDone || j.status == StatusCanceled
	return evs, j.bump, terminal
}

// resultDoc renders the canonical, byte-stable result document. Only
// valid once the job is done.
func (j *Job) resultDoc() ResultDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := ResultDoc{ID: j.ID, Spec: j.Spec, Runs: make([]RunResult, len(j.outs))}
	for i, out := range j.outs {
		res := out.Result
		if res.Status == "" {
			res.Status = core.StatusOK
		}
		doc.Runs[i] = RunResult{Key: out.Key, Result: res}
	}
	return doc
}
