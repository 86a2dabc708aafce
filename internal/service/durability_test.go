package service

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/iofault"
	"repro/internal/runner"
)

// submitWait POSTs a wait=true sweep and returns the decoded job doc.
func submitWait(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, b := post(t, url, body)
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("response %d not JSON: %s", resp.StatusCode, b)
	}
	return resp.StatusCode, doc
}

func runStatuses(t *testing.T, doc map[string]any) []string {
	t.Helper()
	runs, _ := doc["runs"].([]any)
	var out []string
	for _, r := range runs {
		m := r.(map[string]any)
		out = append(out, m["status"].(string))
	}
	return out
}

// TestStoreFaultDegradesAndRecovers is the satellite-3 contract, end to
// end inside one daemon process: a store append failure (ENOSPC, then
// EIO) must resolve the job with a non-cached io_error outcome, degrade
// /readyz while the process keeps serving, and — once the fault clears —
// a re-submission must re-execute and come back durable, with readiness
// restored and the journal healed.
func TestStoreFaultDegradesAndRecovers(t *testing.T) {
	ff := iofault.NewFaultFS(iofault.OS)
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	srv, ts := newTestServer(t, Options{StorePath: storePath, FS: ff, Jobs: 2})

	// Healthy baseline: one sweep acked and durable.
	code, doc := submitWait(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["MUM"],"wait":true}`)
	if code != http.StatusOK || doc["status"] != "done" {
		t.Fatalf("baseline submit: %d %v", code, doc)
	}
	baseID := doc["id"].(string)
	if got := runStatuses(t, doc); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("baseline run statuses = %v", got)
	}

	// The disk goes bad: every write and sync fails until cleared.
	ff.Inject(iofault.Fault{Op: "write", Err: syscall.ENOSPC, Count: -1})
	ff.Inject(iofault.Fault{Op: "sync", Err: syscall.EIO, Count: -1})

	code, doc = submitWait(t, ts.URL, `{"configs":["CP-CR"],"benchmarks":["MUM"],"wait":true}`)
	if code != http.StatusOK || doc["status"] != "done" {
		t.Fatalf("submit under fault: %d %v (the job must still resolve)", code, doc)
	}
	if got := runStatuses(t, doc); len(got) != 1 || got[0] != "io_error" {
		t.Fatalf("run statuses under fault = %v, want [io_error]", got)
	}
	faultID := doc["id"].(string)

	// Readiness degrades honestly; liveness and existing results survive.
	if r, b := get(t, ts.URL+"/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz under store fault = %d (%s), want 503", r.StatusCode, b)
	}
	if r, _ := get(t, ts.URL+"/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz under store fault = %d, want 200 (process alive)", r.StatusCode)
	}
	if r, _ := get(t, ts.URL+"/v1/runs/"+baseID+"/result"); r.StatusCode != http.StatusOK {
		t.Errorf("durable result unreachable under store fault: %d", r.StatusCode)
	}
	if r, b := get(t, ts.URL+"/statusz"); r.StatusCode == http.StatusOK {
		var st map[string]any
		json.Unmarshal(b, &st)
		if w := st["store"].(map[string]any)["wounded"]; w != true {
			t.Errorf("statusz store.wounded = %v, want true", w)
		}
	}

	// The io_error outcome was never cached or journaled: the terminal
	// job pins the id, so replace it by re-submitting after the fault
	// clears — the run must re-execute and persist this time.
	ff.Clear()
	code, doc = submitWait(t, ts.URL, `{"configs":["CP-CR"],"benchmarks":["MUM"],"wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("re-submit after fault cleared: %d %v", code, doc)
	}
	if doc["id"].(string) != faultID {
		t.Fatalf("content address changed: %v vs %v", doc["id"], faultID)
	}
	if got := runStatuses(t, doc); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("run statuses after heal = %v, want [ok]", got)
	}
	if r, _ := get(t, ts.URL+"/readyz"); r.StatusCode != http.StatusOK {
		t.Errorf("readyz after heal = %d, want 200", r.StatusCode)
	}
	if srv.pool.Wounded() {
		t.Error("store still wounded after heal")
	}

	// The journal on disk holds exactly the two durable runs, cleanly.
	recs, stats, err := runner.LoadJournal(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Skipped != 0 || stats.Quarantined != 0 {
		t.Fatalf("journal after heal: %d records, stats %+v; want 2 clean records", len(recs), stats)
	}
}

// TestFaultedJobNotServedFromCache pins the "never cache what you could
// not persist" rule at the HTTP layer: while the store is wounded, repeat
// submissions of the same failing spec re-execute every time (no cache
// hit, no store hit), because acknowledging a cached copy of an
// unpersisted result would lie about durability.
func TestFaultedJobNotServedFromCache(t *testing.T) {
	ff := iofault.NewFaultFS(iofault.OS)
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	srv, ts := newTestServer(t, Options{StorePath: storePath, FS: ff, Jobs: 2})

	ff.Inject(iofault.Fault{Op: "write", Err: syscall.ENOSPC, Count: -1})
	for i := 0; i < 2; i++ {
		code, doc := submitWait(t, ts.URL, `{"configs":["TB-DOR"],"benchmarks":["BIN"],"wait":true}`)
		if code != http.StatusOK {
			t.Fatalf("submit %d: %d %v", i, code, doc)
		}
		runs := doc["runs"].([]any)
		m := runs[0].(map[string]any)
		if m["status"] != "io_error" {
			t.Fatalf("submit %d status = %v, want io_error", i, m["status"])
		}
		if m["cached"] == true {
			t.Fatalf("submit %d served an unpersisted result from cache", i)
		}
	}
	if n := srv.pool.Executed(); n != 2 {
		t.Errorf("pool executed %d runs, want 2 (one per submission, no caching)", n)
	}
	if srv.pool.Records() != 0 {
		t.Errorf("store holds %d results under a dead disk, want 0", srv.pool.Records())
	}
}
