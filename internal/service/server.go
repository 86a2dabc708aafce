package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iofault"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Defaults for Options zero values.
const (
	DefaultQueueCap      = 64
	DefaultMaxRunsPerJob = 256
	DefaultDeadline      = 10 * time.Minute
	DefaultMaxDeadline   = time.Hour
	DefaultRetryAfter    = 2 * time.Second
	DefaultMaxBodyBytes  = 1 << 20
	forcedDrainGrace     = 10 * time.Second // bound on run-cancellation unwind after a drain deadline
)

// Options configures a Server. The zero value is usable: in-memory store,
// GOMAXPROCS workers, a 64-deep admission queue.
type Options struct {
	// StorePath is the result store: the runner pool's checkpoint
	// journal, replayed at startup. "" keeps results in memory only (they
	// will not survive a restart).
	StorePath string
	// QueueCap bounds admitted, unfinished jobs; 0 means DefaultQueueCap.
	QueueCap int
	// MaxRunsPerJob bounds one request's config×benchmark product; 0
	// means DefaultMaxRunsPerJob.
	MaxRunsPerJob int
	// Jobs bounds concurrent simulations (runner workers); 0 means
	// GOMAXPROCS.
	Jobs int
	// RunTimeout is the per-run wall-clock deadline; 0 disables it.
	RunTimeout time.Duration
	// DefaultDeadline bounds jobs that do not request a deadline.
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines.
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429/503 responses.
	RetryAfter time.Duration
	// FS is the filesystem seam under the result store; nil means the
	// real filesystem. Tests inject iofault.FaultFS to prove the
	// ENOSPC/EIO/wounded-mode contract end to end.
	FS iofault.FS
	// Run overrides the simulation entry point (tests only).
	Run runner.RunFunc
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// Server is the simulation service: admission control in front of the
// resilient runner pool, whose crash-safe checkpoint journal is the result
// store, and an HTTP/JSON job API on top.
type Server struct {
	opts Options
	pool *runner.Pool
	adm  *Admission
	mux  *http.ServeMux

	baseCtx context.Context
	stopAll context.CancelFunc

	draining atomic.Bool
	started  time.Time

	mu     sync.Mutex
	jobs   map[string]*Job
	jobWG  sync.WaitGroup
	closed bool

	statMu  sync.Mutex
	httpLat *stats.LogHistogram // request service time, seconds
	runLat  *stats.LogHistogram // simulation wall time, seconds
}

// New assembles a server: pool wiring with store replay, route table.
func New(opts Options) (*Server, error) {
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	if opts.MaxRunsPerJob <= 0 {
		opts.MaxRunsPerJob = DefaultMaxRunsPerJob
	}
	if opts.Jobs <= 0 {
		opts.Jobs = runtime.GOMAXPROCS(0)
	}
	if opts.DefaultDeadline <= 0 {
		opts.DefaultDeadline = DefaultDeadline
	}
	if opts.MaxDeadline <= 0 {
		opts.MaxDeadline = DefaultMaxDeadline
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	baseCtx, stopAll := context.WithCancel(context.Background())
	// The pool's journal is the result store: every durable outcome is
	// fsynced before the pool caches it, so everything the daemon ever
	// acknowledges — HTTP result documents, cache hits, replayed runs — is
	// durable by construction. A refused append comes back as an uncached
	// "io_error" run, and readiness degrades until an append heals the
	// journal.
	pool, err := runner.New(baseCtx, runner.Options{
		Jobs:       opts.Jobs,
		RunTimeout: opts.RunTimeout,
		Checkpoint: opts.StorePath,
		Resume:     true,
		FS:         opts.FS,
		Run:        opts.Run,
	})
	if err != nil {
		stopAll()
		return nil, err
	}
	replay := pool.Replay()
	if n := replay.Skipped; n > 0 {
		opts.Logf("service: store replay skipped %d torn journal line(s); those runs re-execute on demand", n)
	}
	if n := replay.Quarantined; n > 0 {
		opts.Logf("service: store replay quarantined %d corrupt record(s) to %s; those runs re-execute on demand",
			n, runner.QuarantinePath(opts.StorePath))
	}
	if err := replay.SidecarErr; err != nil {
		opts.Logf("service: quarantine sidecar write failed (corrupt lines counted but not preserved): %v", err)
	}
	if opts.StorePath != "" {
		opts.Logf("service: store %s replayed %d completed run(s)", opts.StorePath, pool.Records())
	}

	s := &Server{
		opts:    opts,
		pool:    pool,
		adm:     NewAdmission(opts.QueueCap),
		baseCtx: baseCtx,
		stopAll: stopAll,
		started: time.Now(),
		jobs:    make(map[string]*Job),
		httpLat: stats.NewLogHistogram(1e-6, 3600, 16),
		runLat:  stats.NewLogHistogram(1e-6, 3600, 16),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.instrument(s.handleSubmit))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument(s.handleGet))
	mux.HandleFunc("GET /v1/runs/{id}/result", s.instrument(s.handleResult))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents) // streaming: not latency-instrumented
	mux.HandleFunc("GET /v1/configs", s.instrument(s.handleConfigs))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statusz", s.instrument(s.handleStatusz))
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// instrument records request service time in the service's own
// tail-latency histogram.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.statMu.Lock()
		s.httpLat.Observe(time.Since(t0).Seconds())
		s.statMu.Unlock()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		secs := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

// handleSubmit admits (or recognizes) a job. Responses: 400 malformed,
// 503 draining, 429 queue full, 202 admitted asynchronously, 200 result
// of a completed (or wait=true) job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	body := http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	spec, err := req.Spec.Canonical(s.opts.MaxRunsPerJob)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := spec.ID()

	if s.draining.Load() {
		// Degrade honestly: a draining daemon still serves finished jobs
		// but admits nothing new.
		if j := s.lookupJob(id); j != nil {
			s.respondJob(w, r, j, req.Wait)
			return
		}
		s.writeError(w, http.StatusServiceUnavailable, "draining: not admitting new work")
		return
	}

	j, created, ok := s.admit(id, spec, req)
	if !ok {
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d/%d jobs)", s.adm.InUse(), s.adm.Cap()))
		return
	}
	if created {
		s.jobWG.Add(1)
		go s.runJob(j)
	}
	s.respondJob(w, r, j, req.Wait)
}

// admit returns the job for id, creating and admitting it when absent.
// An existing ephemeral job (terminal-canceled, or done with non-durable
// io_error runs) is replaced — content addressing must not pin those
// verdicts forever. ok=false means the queue shed it.
func (s *Server) admit(id string, spec Spec, req Request) (j *Job, created, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && !j.ephemeral() {
		return j, false, true
	}
	if !s.adm.TryAcquire() {
		return nil, false, false
	}
	cfgs, err := spec.BuildConfigs()
	if err != nil { // unreachable after Canonical, but fail closed
		s.adm.Release()
		return nil, false, false
	}
	deadline := s.opts.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.opts.MaxDeadline {
		deadline = s.opts.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, deadline)
	j = newJob(id, spec, cfgs, ctx, cancel, req.Wait)
	s.jobs[id] = j
	return j, true, true
}

func (s *Server) lookupJob(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// runJob executes one admitted job under the job's deadline context: every
// run is its own one-config pool submission (the pool bounds real
// concurrency), so NDJSON progress and the run-latency histogram advance
// per run rather than per batch.
func (s *Server) runJob(j *Job) {
	defer s.jobWG.Done()
	defer s.adm.Release()
	defer j.cancel()
	j.start()
	var wg sync.WaitGroup
	for i := range j.cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			out := s.pool.Do(j.ctx, j.cfgs[i])[0]
			if out.Result.Status == runner.StatusIOError {
				s.opts.Logf("service: run %s not durable, not cached (readiness degraded): %v", out.Key, out.Err)
			}
			if !out.Cached && !out.Resumed {
				s.statMu.Lock()
				s.runLat.Observe(time.Since(t0).Seconds())
				s.statMu.Unlock()
			}
			j.finishRun(i, out)
		}(i)
	}
	wg.Wait()
	j.finish()
	status, reason, _, _ := j.snapshot()
	s.opts.Logf("service: job %s %s%s (%d runs)", j.ID, status, suffixIf(reason), len(j.cfgs))
}

func suffixIf(reason string) string {
	if reason == "" {
		return ""
	}
	return ": " + reason
}

// respondJob renders the submit response: wait=true blocks until the job
// (or the client) is done; otherwise 202/200 with the status document.
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *Job, wait bool) {
	if wait {
		j.watch()
		defer j.unwatch()
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gone; unwatch may cancel a sync-owned job.
			return
		}
		writeJSON(w, http.StatusOK, s.jobDoc(j))
		return
	}
	code := http.StatusAccepted
	status, _, _, _ := j.snapshot()
	if status == StatusDone || status == StatusCanceled {
		code = http.StatusOK
	}
	writeJSON(w, code, s.jobDoc(j))
}

// jobDoc is the volatile job-status document (GET /v1/runs/{id}).
func (s *Server) jobDoc(j *Job) map[string]any {
	status, reason, doneRuns, outs := j.snapshot()
	runs := make([]map[string]any, 0, len(outs))
	for _, out := range outs {
		if out.Key == "" {
			continue // not finished yet
		}
		runs = append(runs, map[string]any{
			"key":     out.Key,
			"status":  statusLabel(out.Result.Status),
			"cached":  out.Cached,
			"resumed": out.Resumed,
		})
	}
	doc := map[string]any{
		"id":     j.ID,
		"spec":   j.Spec,
		"status": status,
		"done":   doneRuns,
		"total":  len(j.cfgs),
		"runs":   runs,
	}
	if reason != "" {
		doc["reason"] = reason
	}
	if status == StatusDone {
		doc["result_url"] = "/v1/runs/" + j.ID + "/result"
	}
	return doc
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, s.jobDoc(j))
}

// handleResult serves the canonical result document: byte-identical for
// every repeat query, restart and store replay. 202 while running, 410
// for a canceled job (re-submit to re-execute).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	status, reason, doneRuns, _ := j.snapshot()
	switch status {
	case StatusDone:
		writeJSON(w, http.StatusOK, j.resultDoc())
	case StatusCanceled:
		s.writeError(w, http.StatusGone, "job canceled ("+reason+"); re-submit to re-execute")
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id": j.ID, "status": status, "done": doneRuns, "total": len(j.cfgs),
		})
	}
}

// handleEvents streams the job's progress as NDJSON: a replay of past
// events, then live follow until the job ends or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	j.watch()
	defer j.unwatch()
	enc := json.NewEncoder(w)
	seq := 0
	for {
		evs, bump, terminal := j.eventsSince(seq)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		seq += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		// finish() appends the terminal event atomically with the status
		// flip, so a terminal snapshot always includes the final event —
		// once drained above, the stream is complete.
		if terminal {
			return
		}
		select {
		case <-bump:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"configs": DesignPoints()})
}

// handleHealthz is liveness: it reads only atomics, so a saturated queue
// or a stuck job can never block it.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.draining.Load()})
}

// handleReadyz is readiness, and it degrades honestly: 503 while draining
// or while the admission queue is saturated. Atomics only — never blocked
// by job or store locks.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeError(w, http.StatusServiceUnavailable, "draining")
	case s.pool.Wounded():
		s.writeError(w, http.StatusServiceUnavailable, "store wounded: results are not durable until the journal heals")
	case s.adm.Saturated():
		s.writeError(w, http.StatusServiceUnavailable, "admission queue saturated")
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

// handleStatusz reports the daemon's own operational statistics,
// including the tail-latency percentiles the stats package computes.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	byStatus := map[string]int{}
	for _, j := range s.jobs {
		st, _, _, _ := j.snapshot()
		byStatus[st]++
	}
	s.mu.Unlock()
	replay := s.pool.Replay()

	s.statMu.Lock()
	lat := map[string]any{
		"http": latencyDoc(s.httpLat),
		"run":  latencyDoc(s.runLat),
	}
	s.statMu.Unlock()

	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s": int64(time.Since(s.started).Seconds()),
		"draining": s.draining.Load(),
		"queue": map[string]any{
			"in_use": s.adm.InUse(),
			"cap":    s.adm.Cap(),
			"shed":   s.adm.Shed(),
		},
		"jobs":          byStatus,
		"pool_executed": s.pool.Executed(),
		"store": map[string]any{
			"results":     s.pool.Records(),
			"skipped":     replay.Skipped,
			"quarantined": replay.Quarantined,
			"wounded":     s.pool.Wounded(),
			"path":        s.opts.StorePath,
		},
		"latency": lat,
	})
}

func latencyDoc(h *stats.LogHistogram) map[string]any {
	ms := func(v float64) float64 { return v * 1000 }
	return map[string]any{
		"n":       h.N(),
		"mean_ms": ms(h.Mean()),
		"p50_ms":  ms(h.Quantile(0.50)),
		"p99_ms":  ms(h.Quantile(0.99)),
		"p999_ms": ms(h.Quantile(0.999)),
		"max_ms":  ms(h.Max()),
	}
}

// Drain performs the graceful-shutdown contract: stop admitting
// immediately (readiness false, new submissions 503), let in-flight jobs
// finish, and when ctx expires first, checkpoint instead — cancel the
// remaining runs (every completed run is already fsynced in the store)
// and return once executors unwind. Always leaves the store and pool
// closed; the caller exits 0 on a nil error.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.opts.Logf("service: drained cleanly; all in-flight jobs finished")
	case <-ctx.Done():
		s.opts.Logf("service: drain deadline reached; checkpointing in-flight runs")
		s.stopAll() // in-flight runs return "canceled"; finished ones are already durable
		select {
		case <-done:
		case <-time.After(forcedDrainGrace):
			s.opts.Logf("service: executors did not unwind within %v; store is still consistent", forcedDrainGrace)
		}
	}
	return s.Close()
}

// Close releases the pool and its store journal. Safe to call more than
// once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.stopAll()
	return s.pool.Close()
}

// Draining reports whether the server has begun (or finished) draining.
func (s *Server) Draining() bool { return s.draining.Load() }
