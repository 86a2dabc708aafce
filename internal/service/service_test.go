package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/runner"
)

// fakeRun is a deterministic stand-in for core.Run: the result is a pure
// function of the config identity, so store round-trips and restarts can
// be checked for byte-identity without paying for real simulations.
func fakeRun(ctx context.Context, cfg core.Config) (core.Result, error) {
	h := fnv.New64a()
	h.Write([]byte(runner.Key(cfg)))
	return core.Result{
		Benchmark: cfg.Workload.Abbr,
		Config:    cfg.Name,
		Status:    "ok",
		IPC:       float64(h.Sum64()%100000) / 100,
	}, nil
}

// gatedRun blocks every run until release is closed (or the context
// dies), for tests that need work pinned in flight.
func gatedRun(release <-chan struct{}, started chan<- string) runner.RunFunc {
	return func(ctx context.Context, cfg core.Config) (core.Result, error) {
		if started != nil {
			started <- runner.Key(cfg)
		}
		select {
		case <-release:
			return fakeRun(ctx, cfg)
		case <-ctx.Done():
			return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"}, ctx.Err()
		}
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Run == nil {
		opts.Run = fakeRun
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const smallSweep = `{"configs":["TB-DOR","CP-CR"],"benchmarks":["BIN","MUM"],"scale":0.05,"wait":true}`

// TestSubmitWaitAndDigestStableResult: a synchronous submit completes,
// the result document is served, and repeat queries — and a re-submission
// of the same request — return byte-identical bytes without re-executing.
func TestSubmitWaitAndDigestStableResult(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	resp, body := post(t, ts.URL, smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Total  int    `json:"total"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != StatusDone || doc.Total != 4 {
		t.Fatalf("job doc: %+v", doc)
	}

	r1, res1 := get(t, ts.URL+"/v1/runs/"+doc.ID+"/result")
	r2, res2 := get(t, ts.URL+"/v1/runs/"+doc.ID+"/result")
	if r1.StatusCode != 200 || r2.StatusCode != 200 {
		t.Fatalf("result fetch: %d / %d", r1.StatusCode, r2.StatusCode)
	}
	if !bytes.Equal(res1, res2) {
		t.Fatalf("repeat result queries differ:\n%s\n%s", res1, res2)
	}

	// Re-submitting the identical request maps to the same job and does
	// not execute anything new.
	executedBefore := srv.pool.Executed()
	resp, body = post(t, ts.URL, smallSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submit: %d %s", resp.StatusCode, body)
	}
	var doc2 struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &doc2)
	if doc2.ID != doc.ID {
		t.Fatalf("content addressing broken: %s vs %s", doc2.ID, doc.ID)
	}
	if srv.pool.Executed() != executedBefore {
		t.Errorf("re-submission executed %d new runs", srv.pool.Executed()-executedBefore)
	}

	// List order in the request must not matter: same content address.
	reordered := `{"configs":["CP-CR","TB-DOR"],"benchmarks":["MUM","BIN","BIN"],"scale":0.05,"wait":true}`
	_, body = post(t, ts.URL, reordered)
	json.Unmarshal(body, &doc2)
	if doc2.ID != doc.ID {
		t.Errorf("reordered request got a different job ID: %s vs %s", doc2.ID, doc.ID)
	}
}

// TestCrashRestartServesFromStore is the acceptance-criteria journal
// replay test: a daemon killed after completing runs (we simply never
// close the first server, as kill -9 would) is restarted on the same
// store; re-submitting the same request serves every run from the store
// with zero executions, byte-identical — even with a torn final journal
// line in between.
func TestCrashRestartServesFromStore(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	var calls1 atomic.Int64
	srv1, err := New(Options{StorePath: storePath, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		calls1.Add(1)
		return fakeRun(ctx, cfg)
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, body := post(t, ts1.URL, smallSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &doc)
	_, res1 := get(t, ts1.URL+"/v1/runs/"+doc.ID+"/result")
	if calls1.Load() != 4 {
		t.Fatalf("first daemon executed %d runs, want 4", calls1.Load())
	}
	ts1.Close() // kill -9: no srv1.Close(), no journal close, no drain

	// The crash wound: a run torn mid-append.
	f, err := os.OpenFile(storePath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn|TOR|s1|i1","attempts":1,"result":{"IPC":`)
	f.Close()

	var calls2 atomic.Int64
	srv2, ts2 := newTestServer(t, Options{StorePath: storePath, Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		calls2.Add(1)
		return fakeRun(ctx, cfg)
	}})
	if srv2.pool.Replay().Skipped != 1 {
		t.Errorf("store replay skipped %d lines, want 1 (the torn one)", srv2.pool.Replay().Skipped)
	}
	resp, body = post(t, ts2.URL, smallSweep)
	if resp.StatusCode != 200 {
		t.Fatalf("re-submit after restart: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &doc)
	// Replay preloads the pool's cache, so even the first request after the
	// restart reads every run as a cached, resumed outcome.
	var status struct {
		Runs []struct {
			Cached  bool `json:"cached"`
			Resumed bool `json:"resumed"`
		} `json:"runs"`
	}
	json.Unmarshal(body, &status)
	if len(status.Runs) != 4 {
		t.Fatalf("job status lists %d runs, want 4", len(status.Runs))
	}
	for i, r := range status.Runs {
		if !r.Cached || !r.Resumed {
			t.Errorf("run %d after restart: cached=%v resumed=%v, want both true", i, r.Cached, r.Resumed)
		}
	}
	_, res2 := get(t, ts2.URL+"/v1/runs/"+doc.ID+"/result")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("restarted result differs from pre-crash result:\n%s\n%s", res1, res2)
	}
	if calls2.Load() != 0 {
		t.Errorf("restarted daemon re-executed %d runs, want 0 (store replay)", calls2.Load())
	}
	if srv2.pool.Executed() != 0 {
		t.Errorf("pool executed %d runs after restart, want 0", srv2.pool.Executed())
	}
}

// TestAdmissionShedsWith429: a saturated queue refuses with 429 +
// Retry-After while /healthz stays 200 and /readyz reports unready; a
// freed slot restores admission.
func TestAdmissionShedsWith429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	_, ts := newTestServer(t, Options{QueueCap: 1, Run: gatedRun(release, started)})

	// Occupy the single slot with an async job pinned in flight.
	resp, body := post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["MUM"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	<-started

	resp, body = post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["BIN"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	if r, _ := get(t, ts.URL+"/healthz"); r.StatusCode != 200 {
		t.Errorf("healthz %d during saturation, want 200", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz %d during saturation, want 503", r.StatusCode)
	}

	close(release)
	// The slot frees once the job finishes; admission recovers.
	deadline := time.After(5 * time.Second)
	for {
		resp, body = post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["BIN"]}`)
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("admission never recovered: %d %s", resp.StatusCode, body)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDrainFinishesInFlightAndRefusesNew: Drain flips readiness and
// refuses new submissions while the in-flight job runs to completion and
// lands in the store; Drain returns nil (exit 0 for the daemon).
func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	srv, ts := newTestServer(t, Options{StorePath: storePath, Run: gatedRun(release, started)})

	resp, body := post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["MUM"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &doc)
	<-started

	drainErr := make(chan error, 1)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainErr <- srv.Drain(drainCtx) }()

	// Draining: readiness off, new work refused with Retry-After.
	waitFor(t, func() bool { return srv.Draining() })
	if r, _ := get(t, ts.URL+"/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz %d while draining, want 503", r.StatusCode)
	}
	resp, _ = post(t, ts.URL, `{"configs":["CP-CR"],"benchmarks":["BIN"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new submit while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight run finished during drain and is durable.
	recs, stats, err := runner.LoadJournal(storePath)
	if err != nil || stats.Skipped != 0 || stats.Quarantined != 0 || len(recs) != 1 {
		t.Fatalf("journal after drain: recs=%d stats=%+v err=%v, want exactly the drained run", len(recs), stats, err)
	}
}

// TestDrainDeadlineCheckpoints: when in-flight work outlives the drain
// budget, Drain cancels it and still returns cleanly — the checkpoint
// contract — rather than hanging.
func TestDrainDeadlineCheckpoints(t *testing.T) {
	release := make(chan struct{}) // never closed: the run only ends by cancellation
	defer close(release)
	started := make(chan string, 8)
	srv, ts := newTestServer(t, Options{Run: gatedRun(release, started)})

	if resp, body := post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["MUM"]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	<-started

	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("forced drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("forced drain took %v; the deadline is not being honoured", elapsed)
	}
}

// TestJobDeadlineCancelsAndDoesNotPoison: an end-to-end deadline cancels
// in-flight simulation work, the job reports canceled, and a later
// re-submission with a workable deadline re-executes and completes —
// the canceled verdict must not be pinned by content addressing.
func TestJobDeadlineCancelsAndDoesNotPoison(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	_, ts := newTestServer(t, Options{Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
		if calls.Add(1) == 1 {
			select { // first attempt: stuck until the deadline kills it
			case <-release:
			case <-ctx.Done():
				return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: "canceled"}, ctx.Err()
			}
		}
		return fakeRun(ctx, cfg)
	}})

	req := `{"configs":["TB-DOR"],"benchmarks":["MUM"],"wait":true,"deadline_ms":100}`
	resp, body := post(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	json.Unmarshal(body, &doc)
	if doc.Status != StatusCanceled {
		t.Fatalf("job status %q after deadline, want canceled (%s)", doc.Status, body)
	}
	if r, _ := get(t, ts.URL+"/v1/runs/"+doc.ID+"/result"); r.StatusCode != http.StatusGone {
		t.Errorf("result of canceled job: %d, want 410", r.StatusCode)
	}

	// Same spec, workable deadline: must re-admit and complete.
	resp, body = post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["MUM"],"wait":true,"deadline_ms":60000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submit: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &doc)
	if doc.Status != StatusDone {
		t.Fatalf("re-submitted job status %q, want done (%s)", doc.Status, body)
	}
	if calls.Load() < 2 {
		t.Errorf("run executed %d times; the canceled attempt was served from cache", calls.Load())
	}
}

// TestEventsStreamNDJSON: the events endpoint replays and follows a
// job's progress as parseable NDJSON, ending when the job does.
func TestEventsStreamNDJSON(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	// Jobs: 2 so both gated runs can be in flight at once regardless of
	// the machine's core count (the test releases them together).
	_, ts := newTestServer(t, Options{Jobs: 2, Run: gatedRun(release, started)})

	resp, body := post(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["BIN","MUM"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var doc struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &doc)

	stream, err := http.Get(ts.URL + "/v1/runs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	<-started
	<-started
	close(release)

	var types []string
	runEvents := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Seq != len(types) {
			t.Errorf("event %d has seq %d", len(types), ev.Seq)
		}
		types = append(types, ev.Type)
		if ev.Type == "run" {
			runEvents++
		}
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(types) == 0 || types[0] != "queued" || types[len(types)-1] != "done" {
		t.Fatalf("event sequence %v, want queued ... done", types)
	}
	if runEvents != 2 {
		t.Errorf("%d run events, want 2", runEvents)
	}
}

// TestBadRequests: malformed and invalid submissions answer 400 with a
// usable message; oversized sweeps are refused.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxRunsPerJob: 4})
	cases := []struct {
		body string
		want string
	}{
		{`{`, "malformed"},
		{`{"benchmarks":["MUM"]}`, "configs required"},
		{`{"configs":["TB-DOR"]}`, "benchmarks required"},
		{`{"configs":["NOPE"],"benchmarks":["MUM"]}`, "unknown config"},
		{`{"configs":["TB-DOR"],"benchmarks":["NOPE"]}`, "NOPE"},
		{`{"configs":["TB-DOR"],"benchmarks":["MUM"],"scale":7}`, "scale"},
		{`{"configs":["TB-DOR","CP-CR","CP-DOR"],"benchmarks":["MUM","BIN"]}`, "caps jobs"},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.body, resp.StatusCode)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s: body %s does not mention %q", c.body, body, c.want)
		}
	}
	if r, _ := get(t, ts.URL+"/v1/runs/unknown"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", r.StatusCode)
	}
}

// TestStatuszPercentiles: the daemon's own latency percentiles are
// exposed once requests have flowed.
func TestStatuszPercentiles(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts.URL, smallSweep)
	resp, body := get(t, ts.URL+"/statusz")
	if resp.StatusCode != 200 {
		t.Fatalf("statusz: %d", resp.StatusCode)
	}
	var doc struct {
		Latency struct {
			HTTP struct {
				N   uint64  `json:"n"`
				P50 float64 `json:"p50_ms"`
				P99 float64 `json:"p99_ms"`
			} `json:"http"`
			Run struct {
				N uint64 `json:"n"`
			} `json:"run"`
		} `json:"latency"`
		Store struct {
			Results int `json:"results"`
		} `json:"store"`
		PoolExecuted int `json:"pool_executed"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("statusz body %s: %v", body, err)
	}
	if doc.Latency.HTTP.N == 0 || doc.Latency.HTTP.P99 < doc.Latency.HTTP.P50 {
		t.Errorf("http latency doc not populated: %s", body)
	}
	if doc.Latency.Run.N != 4 || doc.PoolExecuted != 4 || doc.Store.Results != 4 {
		t.Errorf("run accounting: %s", body)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never became true")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSpecCanonicalAndID pins the content-addressing contract directly.
func TestSpecCanonicalAndID(t *testing.T) {
	a, err := Spec{Configs: []string{"CP-CR", "TB-DOR", "CP-CR"}, Benchmarks: []string{"MUM", "BIN"}}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Spec{Configs: []string{"TB-DOR", "CP-CR"}, Benchmarks: []string{"BIN", "MUM", "BIN"}, Seed: 1, Scale: 1}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Errorf("equivalent specs address differently: %s vs %s", a.ID(), b.ID())
	}
	c, _ := Spec{Configs: []string{"TB-DOR", "CP-CR"}, Benchmarks: []string{"BIN", "MUM"}, Seed: 2}.Canonical(100)
	if c.ID() == a.ID() {
		t.Error("different seeds share a content address")
	}
	cfgs, err := a.BuildConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("BuildConfigs: %d configs, want 4", len(cfgs))
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("built config %s invalid: %v", cfg.Name, err)
		}
	}
	if fmt.Sprintf("%s|%s", cfgs[0].Name, cfgs[0].Workload.Abbr) != "CP-CR|BIN" {
		t.Errorf("BuildConfigs order not canonical: first is %s/%s", cfgs[0].Name, cfgs[0].Workload.Abbr)
	}
}

// TestSpecTopology pins the topology field's contract: "mesh" normalizes
// away so job IDs minted before the field existed stay valid, ring and
// basejump re-target only topology-neutral design points, and the built
// configs carry the selected backend.
func TestSpecTopology(t *testing.T) {
	old, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}, Topology: "mesh"}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.ID() != old.ID() {
		t.Errorf("explicit mesh changes the job ID: %s vs %s", mesh.ID(), old.ID())
	}
	ring, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}, Topology: "ring"}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	if ring.ID() == old.ID() {
		t.Error("ring and mesh jobs share a content address")
	}
	cfgs, err := ring.BuildConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if cfgs[0].Name != "TB-DOR-ring" || cfgs[0].Noc.Topology != noc.BackendRing {
		t.Errorf("ring spec built %q with topology %v", cfgs[0].Name, cfgs[0].Noc.Topology)
	}
	if err := cfgs[0].Validate(); err != nil {
		t.Errorf("ring config invalid: %v", err)
	}
	if _, err := (Spec{Configs: []string{"CP-CR"}, Benchmarks: []string{"MUM"}, Topology: "ring"}).Canonical(100); err == nil {
		t.Error("mesh-only CP-CR accepted with ring topology")
	}
	if _, err := (Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}, Topology: "torus"}).Canonical(100); err == nil {
		t.Error("unknown topology accepted")
	}
	named, err := Spec{Configs: []string{"BaseJump", "Ring"}, Benchmarks: []string{"MUM"}}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	ncfgs, err := named.BuildConfigs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range ncfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("named design point %s invalid: %v", cfg.Name, err)
		}
	}
	if ncfgs[0].Noc.Topology != noc.BackendBaseJump || ncfgs[1].Noc.Topology != noc.BackendRing {
		t.Errorf("named design points built wrong backends: %v, %v",
			ncfgs[0].Noc.Topology, ncfgs[1].Noc.Topology)
	}
}

// TestSpecSeeds pins the multi-seed sweep field: seeds sort and deduplicate,
// a single-element list normalizes into the scalar Seed (so job IDs minted
// before the field existed stay valid), zero seeds are rejected, the run
// count multiplies by the seed count, and BuildConfigs emits the seeds of
// one (config, benchmark) pair adjacently — the shape lane coalescing wants.
func TestSpecSeeds(t *testing.T) {
	old, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}, Seed: 5}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"}, Seeds: []uint64{5}}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	if single.ID() != old.ID() {
		t.Errorf("seeds [5] and seed 5 address differently: %s vs %s", single.ID(), old.ID())
	}
	if single.Seeds != nil || single.Seed != 5 {
		t.Errorf("single-element seeds did not normalize into the scalar: %+v", single)
	}

	multi, err := Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"BIN", "MUM"},
		Seeds: []uint64{9, 3, 9, 5}}.Canonical(100)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{3, 5, 9}; len(multi.Seeds) != 3 ||
		multi.Seeds[0] != want[0] || multi.Seeds[1] != want[1] || multi.Seeds[2] != want[2] {
		t.Errorf("seeds not sorted/deduplicated: %v, want %v", multi.Seeds, want)
	}
	if multi.ID() == old.ID() {
		t.Error("multi-seed sweep shares a content address with a single run")
	}
	cfgs, err := multi.BuildConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 6 {
		t.Fatalf("BuildConfigs: %d configs, want 2 benchmarks x 3 seeds", len(cfgs))
	}
	// Seeds of one (config, benchmark) pair must sit adjacent, in order.
	for i, cfg := range cfgs {
		if want := multi.Seeds[i%3]; cfg.Seed != want {
			t.Errorf("cfgs[%d].Seed = %d, want %d (seeds adjacent per pair)", i, cfg.Seed, want)
		}
	}
	if cfgs[0].Workload.Abbr != cfgs[2].Workload.Abbr || cfgs[0].Workload.Abbr == cfgs[3].Workload.Abbr {
		t.Errorf("seed expansion not innermost: abbrs %s,%s,%s,%s",
			cfgs[0].Workload.Abbr, cfgs[1].Workload.Abbr, cfgs[2].Workload.Abbr, cfgs[3].Workload.Abbr)
	}

	if _, err := (Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"},
		Seeds: []uint64{1, 0}}).Canonical(100); err == nil {
		t.Error("zero seed accepted")
	}
	if _, err := (Spec{Configs: []string{"TB-DOR"}, Benchmarks: []string{"MUM"},
		Seeds: []uint64{1, 2, 3}}).Canonical(2); err == nil {
		t.Error("seed multiplier not counted against the run cap")
	}
}

// TestMultiSeedJob drives a multi-seed job end to end: every seed gets its
// own run row and store record, and a re-submission is served from the
// store byte-identically without re-executing.
func TestMultiSeedJob(t *testing.T) {
	var runs atomic.Int64
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{
		StorePath: filepath.Join(dir, "store.jsonl"),
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			runs.Add(1)
			return fakeRun(ctx, cfg)
		},
	})
	body := `{"configs":["TB-DOR"],"benchmarks":["MUM"],"seeds":[1,2,3,4],"scale":0.05,"wait":true}`
	resp, b := post(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var doc struct {
		Status string `json:"status"`
		Runs   []struct {
			Seed   uint64  `json:"seed"`
			Status string  `json:"status"`
			IPC    float64 `json:"ipc"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "done" || len(doc.Runs) != 4 {
		t.Fatalf("job = %s with %d runs, want done with 4", doc.Status, len(doc.Runs))
	}
	for _, r := range doc.Runs {
		if r.Status != "ok" {
			t.Errorf("run status %q, want ok", r.Status)
		}
	}
	if got := srv.pool.Records(); got != 4 {
		t.Errorf("store holds %d records, want 4 (one per seed)", got)
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("executed %d runs, want 4", got)
	}
	// Re-submission: all four seeds served from the store, nothing runs.
	resp, b2 := post(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(b, b2) {
		t.Errorf("re-submission not byte-identical (status %d)", resp.StatusCode)
	}
	if got := runs.Load(); got != 4 {
		t.Errorf("re-submission grew executed runs to %d", got)
	}
}
