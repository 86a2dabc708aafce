package service

// Deterministic crash chaos: re-exec the test binary as a real daemon
// child with one crashpoint armed, SIGKILL it mid-write at that exact
// boundary, restart, and assert the durability contract:
//
//   - every acknowledged result survives restart byte-identical and is
//     never re-executed;
//   - every unacknowledged result either re-executes or was already
//     durable (the fsync had completed when the plug was pulled);
//   - replay never quarantines a record that was written correctly.
//
// scripts/chaos.sh runs the same sweep against the real tesimd binary.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/iofault"
)

const (
	chaosChildEnv  = "TESIM_CHAOS_CHILD"
	chaosStoreEnv  = "TESIM_CHAOS_STORE"
	chaosSpecA     = `{"configs":["TB-DOR"],"benchmarks":["MUM"],"wait":true}`
	chaosSpecB     = `{"configs":["CP-CR"],"benchmarks":["MUM"],"wait":true}`
	chaosHTTPLimit = 15 * time.Second
)

func TestMain(m *testing.M) {
	if os.Getenv(chaosChildEnv) == "1" {
		chaosChildMain()
		return
	}
	os.Exit(m.Run())
}

// chaosChildMain is the re-exec'd daemon: a real Server over the real
// store journal, with whatever crashpoint the parent armed via env. It
// prints its address on stdout and serves until killed.
func chaosChildMain() {
	logger := log.New(os.Stderr, "chaos-child: ", 0)
	srv, err := New(Options{
		StorePath: os.Getenv(chaosStoreEnv),
		Run:       fakeRun,
		Jobs:      2,
		Logf:      logger.Printf,
	})
	if err != nil {
		logger.Printf("startup: %v", err)
		os.Exit(3)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Printf("listen: %v", err)
		os.Exit(3)
	}
	if cp := iofault.Armed(); cp != "" {
		logger.Printf("armed crashpoint %q", cp)
	}
	fmt.Printf("CHAOS_ADDR=%s\n", ln.Addr())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		logger.Printf("serve: %v", err)
		os.Exit(3)
	}
}

type chaosChild struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
}

// startChild re-execs the test binary as a chaos daemon child. point ""
// runs it unarmed. When the armed point fires during startup the child
// dies before printing an address; callers that expect that pass
// wantAddr=false.
func startChild(t *testing.T, store, point string, hits int, wantAddr bool) *chaosChild {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		chaosChildEnv+"=1",
		chaosStoreEnv+"="+store,
		iofault.EnvCrashpoint+"="+point,
		iofault.EnvCrashpointHits+"="+strconv.Itoa(hits),
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &chaosChild{cmd: cmd, stderr: &stderr}
	t.Cleanup(func() { c.cmd.Process.Kill(); c.cmd.Wait() })

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "CHAOS_ADDR="); ok {
				addrCh <- a
				break
			}
		}
		close(addrCh)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok && wantAddr {
			cmd.Wait()
			t.Fatalf("child died before serving:\n%s", stderr.String())
		}
		c.addr = a
	case <-time.After(30 * time.Second):
		t.Fatalf("child did not report an address:\n%s", stderr.String())
	}
	return c
}

// waitKilled blocks until the child exits and asserts it died by SIGKILL
// (the crashpoint fired) rather than any orderly path.
func (c *chaosChild) waitKilled(t *testing.T) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("child outlived its crashpoint:\n%s", c.stderr.String())
	}
	ws := c.cmd.ProcessState
	if ws.ExitCode() != -1 && ws.ExitCode() != 137 {
		t.Fatalf("child exited %d, want SIGKILL:\n%s", ws.ExitCode(), c.stderr.String())
	}
}

func (c *chaosChild) kill() { c.cmd.Process.Kill(); c.cmd.Wait() }

var chaosClient = &http.Client{Timeout: chaosHTTPLimit}

// chaosPost submits a sweep, tolerating transport failure (the child is
// allowed — expected, even — to die mid-request).
func chaosPost(addr, body string) (int, []byte, error) {
	resp, err := chaosClient.Post("http://"+addr+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, nil
}

func chaosGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := chaosClient.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// chaosSubmitOK submits and requires a completed all-ok (or resumed) job,
// returning the job id.
func chaosSubmitOK(t *testing.T, addr, body string) string {
	t.Helper()
	code, b, err := chaosPost(addr, body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit: code %d err %v body %s", code, err, b)
	}
	var doc struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("submit response: %v (%s)", err, b)
	}
	if doc.Status != "done" {
		t.Fatalf("job %s status %q, want done (%s)", doc.ID, doc.Status, b)
	}
	return doc.ID
}

type chaosStatus struct {
	PoolExecuted int `json:"pool_executed"`
	Store        struct {
		Results     int  `json:"results"`
		Skipped     int  `json:"skipped"`
		Quarantined int  `json:"quarantined"`
		Wounded     bool `json:"wounded"`
	} `json:"store"`
}

func chaosStatusz(t *testing.T, addr string) chaosStatus {
	t.Helper()
	code, b := chaosGet(t, addr, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d %s", code, b)
	}
	var st chaosStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChaosAppendCrashpoints sweeps every append-path crashpoint: the
// child daemon acks request A (hit 1), then SIGKILLs itself at the armed
// boundary during request B's append (hit 2).
func TestChaosAppendCrashpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep re-execs child daemons")
	}
	// Whether request B's record is durable when the plug is pulled is a
	// property of the boundary: before the write(2) nothing exists; after
	// the write returns, the bytes are in the file (a process kill, unlike
	// a power cut, does not empty the page cache), so replay resumes it.
	durableAfterKill := map[string]bool{
		iofault.CPAppendBeforeWrite:   false,
		iofault.CPAppendAfterWrite:    true,
		iofault.CPAppendAfterSync:     true,
		iofault.CPPublishBeforeAppend: false,
		iofault.CPPublishAfterAppend:  true,
	}
	for point, durable := range durableAfterKill {
		t.Run(point, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store.jsonl")

			child := startChild(t, store, point, 2, true)
			idA := chaosSubmitOK(t, child.addr, chaosSpecA)
			code, resultA := chaosGet(t, child.addr, "/v1/runs/"+idA+"/result")
			if code != http.StatusOK {
				t.Fatalf("result A: %d", code)
			}
			// Request B crashes the daemon mid-append; any response —
			// including none — is legitimate, the restart is the oracle.
			chaosPost(child.addr, chaosSpecB)
			child.waitKilled(t)

			child = startChild(t, store, "", 0, true)
			defer child.kill()

			// Acked A survives byte-identical and is never re-executed.
			idA2 := chaosSubmitOK(t, child.addr, chaosSpecA)
			if idA2 != idA {
				t.Fatalf("content address drifted: %s vs %s", idA2, idA)
			}
			code, resultA2 := chaosGet(t, child.addr, "/v1/runs/"+idA+"/result")
			if code != http.StatusOK || !bytes.Equal(resultA, resultA2) {
				t.Fatalf("acked result changed across crash:\npre:  %s\npost: %s", resultA, resultA2)
			}
			if st := chaosStatusz(t, child.addr); st.PoolExecuted != 0 {
				t.Fatalf("acked run re-executed %d time(s) after restart", st.PoolExecuted)
			}

			// Unacked B re-executes unless its fsync (or at least its
			// write) had landed — then replay resumes it instead.
			chaosSubmitOK(t, child.addr, chaosSpecB)
			st := chaosStatusz(t, child.addr)
			wantExec := 1
			if durable {
				wantExec = 0
			}
			if st.PoolExecuted != wantExec {
				t.Errorf("unacked run executed %d time(s) after restart, want %d", st.PoolExecuted, wantExec)
			}
			// Zero corrupt-record false positives: the crash must not have
			// manufactured torn or quarantined lines at these boundaries.
			if st.Store.Skipped != 0 || st.Store.Quarantined != 0 {
				t.Errorf("replay skipped=%d quarantined=%d after clean-boundary crash, want 0/0",
					st.Store.Skipped, st.Store.Quarantined)
			}
			if st.Store.Wounded {
				t.Error("store wounded after restart")
			}
		})
	}
}

// TestChaosSealCrashpoints crashes the daemon while it is sealing a torn
// journal tail during startup, then proves the next start still recovers
// every durable record.
func TestChaosSealCrashpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep re-execs child daemons")
	}
	for _, point := range []string{iofault.CPSealBeforeSync, iofault.CPSealAfterSync} {
		t.Run(point, func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store.jsonl")

			// Build a store holding one acked record, then tear its tail
			// the way a mid-write power cut would.
			child := startChild(t, store, "", 0, true)
			idA := chaosSubmitOK(t, child.addr, chaosSpecA)
			child.kill()
			f, err := os.OpenFile(store, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`*deadbeef 48 {"half-written`); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Startup seals the torn line and dies at the armed boundary.
			child = startChild(t, store, point, 1, false)
			child.waitKilled(t)

			// Next start must come up clean with the durable record intact;
			// the sealed wreckage becomes one quarantined line, never more.
			child = startChild(t, store, "", 0, true)
			defer child.kill()
			if got := chaosSubmitOK(t, child.addr, chaosSpecA); got != idA {
				t.Fatalf("content address drifted: %s vs %s", got, idA)
			}
			st := chaosStatusz(t, child.addr)
			if st.PoolExecuted != 0 {
				t.Errorf("durable run re-executed %d time(s) after seal crash", st.PoolExecuted)
			}
			if wreck := st.Store.Skipped + st.Store.Quarantined; wreck != 1 {
				t.Errorf("skipped=%d quarantined=%d, want exactly the one torn tail",
					st.Store.Skipped, st.Store.Quarantined)
			}
		})
	}
}

// TestChaosQuarantineCrashpoint crashes the daemon while it is copying a
// corrupt record to the .corrupt sidecar, then proves recovery: the next
// start quarantines it again and every valid record survives.
func TestChaosQuarantineCrashpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep re-execs child daemons")
	}
	store := filepath.Join(t.TempDir(), "store.jsonl")

	child := startChild(t, store, "", 0, true)
	idA := chaosSubmitOK(t, child.addr, chaosSpecA)
	child.kill()
	f, err := os.OpenFile(store, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A complete line whose CRC cannot match: quarantined, not torn.
	if _, err := f.WriteString("*00000000 9 {\"bad\":1}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	child = startChild(t, store, iofault.CPQuarantineBeforeWrite, 1, false)
	child.waitKilled(t)

	child = startChild(t, store, "", 0, true)
	defer child.kill()
	if got := chaosSubmitOK(t, child.addr, chaosSpecA); got != idA {
		t.Fatalf("content address drifted: %s vs %s", got, idA)
	}
	st := chaosStatusz(t, child.addr)
	if st.PoolExecuted != 0 {
		t.Errorf("valid run re-executed %d time(s) after quarantine crash", st.PoolExecuted)
	}
	if st.Store.Quarantined != 1 || st.Store.Skipped != 0 {
		t.Errorf("skipped=%d quarantined=%d, want 0/1", st.Store.Skipped, st.Store.Quarantined)
	}
	if _, err := os.Stat(store + ".corrupt"); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
}
