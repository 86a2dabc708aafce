package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/service"
)

// serviceRT is the tesimd path in process: service.New behind an httptest
// listener, driven closed loop by 2 clients (tesimd's callers are sweep
// scripts that wait for the reply). Phase A submits distinct fresh specs;
// phase B, after A has drained, resubmits each of them so the repeat
// latencies are not measured under a competing simulation.
type serviceRT struct {
	bodies  [][]byte      // one POST /v1/runs body per fresh spec
	cfgs    []core.Config // the one run each spec expands to
	repeats int
}

const (
	serviceClients = 2
	serviceJobs    = 2
)

func newServiceRT(e *env) (*serviceRT, error) {
	nSpecs, scale, repeats := 18, 0.125, 20
	if e.small {
		nSpecs, scale, repeats = 2, closedSmallScale, 2 // 6 round trips
	}
	benches := []string{"BIN", "CON", "RAY", "AES", "LIB", "FWT"}
	w := &serviceRT{repeats: repeats}
	for i := 0; i < nSpecs; i++ {
		spec := service.Spec{
			Configs:    []string{"TB-DOR"},
			Benchmarks: []string{benches[i%len(benches)]},
			Seed:       e.seed + uint64(i),
			Scale:      scale,
		}
		canon, err := spec.Canonical(service.DefaultMaxRunsPerJob)
		if err != nil {
			return nil, err
		}
		cfgs, err := canon.BuildConfigs()
		if err != nil {
			return nil, err
		}
		if len(cfgs) != 1 {
			return nil, fmt.Errorf("service spec %d expands to %d runs, want 1", i, len(cfgs))
		}
		body, err := json.Marshal(service.Request{Spec: spec, Wait: true})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.cfgs = append(w.cfgs, cfgs[0])
	}
	return w, nil
}

// daemon is one service instance with its listener and store file.
type daemon struct {
	srv   *service.Server
	ts    *httptest.Server
	store string
}

func (w *serviceRT) start(e *env, name string) (*daemon, error) {
	d := &daemon{store: e.tempPath(name)}
	srv, err := service.New(service.Options{
		StorePath: d.store,
		Jobs:      serviceJobs,
		FS:        e.tr.fs(),
		Run:       e.tr.runHook("service.kernel"),
	})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	d.ts = httptest.NewServer(srv.Handler())
	return d, nil
}

func (d *daemon) stop() error {
	d.ts.Close()
	err := d.srv.Close()
	os.Remove(d.store)
	return err
}

func (w *serviceRT) setup(e *env) error {
	d, err := w.start(e, "service-setup.jsonl")
	if err != nil {
		return err
	}
	if err := buildSystems(w.cfgs); err != nil { // the pool builds one per fresh spec
		d.stop()
		return err
	}
	return d.stop()
}

// roundTrip is one submit→result: POST /v1/runs with wait:true, then GET
// the canonical result document the reply points at.
type roundTrip struct {
	ms      float64
	shed    bool
	problem string // non-empty when the round trip failed
	doc     []byte // result document body
}

func doRoundTrip(c *http.Client, base string, body []byte) roundTrip {
	var rt roundTrip
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		rt.problem = err.Error()
		return rt
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		rt.shed = resp.StatusCode == http.StatusTooManyRequests
		rt.problem = fmt.Sprintf("POST /v1/runs: %d %v %s", resp.StatusCode, err, bytes.TrimSpace(reply))
		return rt
	}
	var job struct {
		Status    string `json:"status"`
		ResultURL string `json:"result_url"`
	}
	if err := json.Unmarshal(reply, &job); err != nil || job.Status != service.StatusDone || job.ResultURL == "" {
		rt.problem = fmt.Sprintf("POST /v1/runs: job not done: %v %s", err, bytes.TrimSpace(reply))
		return rt
	}
	resp, err = c.Get(base + job.ResultURL)
	if err != nil {
		rt.problem = err.Error()
		return rt
	}
	rt.doc, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rt.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if resp.StatusCode != http.StatusOK || err != nil {
		rt.problem = fmt.Sprintf("GET %s: %d %v", job.ResultURL, resp.StatusCode, err)
	}
	return rt
}

// drive runs n round trips closed loop over the clients, cycling through
// the request bodies. Results are indexed like the round trips.
func (w *serviceRT) drive(e *env, c *http.Client, base string, bodies [][]byte, n int, span string) []roundTrip {
	out := make([]roundTrip, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := i % len(bodies)
				id := e.tr.begin(span, e.tr.opID(runner.Key(w.cfgs[s])), 0)
				out[i] = doRoundTrip(c, base, bodies[s])
				e.tr.end(id)
			}
		}()
	}
	wg.Wait()
	return out
}

// executed reads pool_executed from /statusz.
func executed(c *http.Client, base string) (int, error) {
	resp, err := c.Get(base + "/statusz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		PoolExecuted int `json:"pool_executed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.PoolExecuted, err
}

func (w *serviceRT) pass(e *env) passStats {
	var ps passStats
	bodies := w.bodies
	d, err := w.start(e, "service.jsonl")
	if err != nil {
		e.chk.check(false, "service: start: %v", err)
		return ps
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	defer client.CloseIdleConnections()

	start := time.Now()
	fresh := w.drive(e, client, d.ts.URL, bodies, len(bodies), "service.fresh")
	ps.freshWall = time.Since(start)
	afterA, errA := executed(client, d.ts.URL)
	repeat := w.drive(e, client, d.ts.URL, bodies, len(bodies)*w.repeats, "service.repeat")
	ps.wall = time.Since(start)
	afterB, errB := executed(client, d.ts.URL)

	e.chk.check(errA == nil && errB == nil, "service: /statusz: %v %v", errA, errB)
	e.chk.check(afterA == len(bodies), "service: phase A executed %d runs for %d fresh specs", afterA, len(bodies))
	ps.repeatHits = len(repeat) - (afterB - afterA)
	err = d.stop()
	e.chk.check(err == nil, "service: close: %v", err)

	for i, rt := range fresh {
		if rt.shed {
			ps.shed++
		}
		e.chk.check(rt.problem == "", "service: fresh %d: %s", i, rt.problem)
		if rt.problem != "" {
			continue
		}
		var doc service.ResultDoc
		if err := json.Unmarshal(rt.doc, &doc); err != nil || len(doc.Runs) != 1 {
			e.chk.check(false, "service: fresh %d: result document: %v (%d runs)", i, err, len(doc.Runs))
			continue
		}
		ps.addRun(e, w.cfgs[i], doc.Runs[0].Result)
		ps.fresh = append(ps.fresh, rt.ms)
		ps.freshOps = append(ps.freshOps, e.tr.opID(runner.Key(w.cfgs[i])))
	}
	checkClosedResults(e.chk, w.cfgs, ps.results)
	for i, rt := range repeat {
		if rt.shed {
			ps.shed++
		}
		checkRepeat(e.chk, i, rt, fresh[i%len(fresh)])
		if rt.problem == "" {
			ps.repeat = append(ps.repeat, rt.ms)
		}
	}
	return ps
}

// checkRepeat requires a repeat to carry the same per-run results as the
// fresh response of its spec.
func checkRepeat(chk *checker, i int, rt, fresh roundTrip) {
	chk.check(rt.problem == "" && bytes.Equal(rt.doc, fresh.doc),
		"service: repeat %d: %s; result document differs from the fresh one: %t", i, rt.problem, !bytes.Equal(rt.doc, fresh.doc))
}

func (w *serviceRT) verify(e *env, ref passStats) {}
