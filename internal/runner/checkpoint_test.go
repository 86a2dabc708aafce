package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/iofault"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.jsonl")
}

// TestJournalRoundTrip: records load back as written, including the
// "stall" and "livelock" verdicts older builds journaled and no run
// reaches any more.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "A|MUM|s1|i100", Result: core.Result{Benchmark: "MUM", Config: "A", Status: "ok", IPC: 42.5}},
		{Key: "B|MUM|s1|i100", Result: core.Result{Benchmark: "MUM", Config: "B", Status: "stall"}},
		{Key: "C|MUM|s1|i100", Result: core.Result{Benchmark: "MUM", Config: "C", Status: "livelock"}},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Quarantined != 0 {
		t.Errorf("replay stats = %+v, want clean", stats)
	}
	if len(got) != len(recs) || got[0] != recs[0] || got[1] != recs[1] || got[2] != recs[2] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadJournalQuarantinesCorruptLines(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "good|run|s1|i1",
		Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-write preceded by real corruption: a garbage
	// line (quarantined to the sidecar) and a truncated record (the torn
	// final line, counted as skipped).
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("this is not json\n")
	f.WriteString(`{"key":"torn|run|s1|i1","attempts":1,"result":{"Stat`)
	f.Close()

	got, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "good|run|s1|i1" {
		t.Fatalf("records = %+v, want just the good one", got)
	}
	if stats.Quarantined != 1 || stats.Skipped != 1 {
		t.Errorf("stats = %+v, want 1 quarantined + 1 skipped", stats)
	}
	side, err := os.ReadFile(QuarantinePath(path))
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !strings.Contains(string(side), "this is not json") {
		t.Errorf("sidecar does not preserve the corrupt line: %q", side)
	}
}

// TestFlippedByteQuarantinesExactlyOne is the acceptance criterion for the
// v2 framing: a single flipped byte in the middle of the file must cost
// exactly the record it hit — every other record replays, the corrupt one
// is quarantined, and nothing is falsely accepted. (Under the old v1
// plain-JSON format a flipped byte inside a string value still parsed and
// was served as truth.)
func TestFlippedByteQuarantinesExactlyOne(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"A|MUM|s1|i10", "B|MUM|s1|i10", "C|MUM|s1|i10"}
	for _, key := range keys {
		if err := j.Append(Record{Key: key, Result: core.Result{Status: "ok", IPC: 7.25}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the middle record's JSON payload.
	mid := []byte(`"key":"B|MUM`)
	i := strings.Index(string(raw), string(mid))
	if i < 0 {
		t.Fatal("middle record not found in journal bytes")
	}
	raw[i+8] ^= 0x20 // 'B' -> 'b': still perfectly valid JSON, wrong data
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != keys[0] || got[1].Key != keys[2] {
		t.Fatalf("records after flip = %+v, want A and C", got)
	}
	if stats.Quarantined != 1 || stats.Skipped != 0 {
		t.Errorf("stats = %+v, want exactly 1 quarantined, 0 skipped", stats)
	}
	if _, err := os.Stat(QuarantinePath(path)); err != nil {
		t.Errorf("quarantine sidecar missing: %v", err)
	}
	// The journal must remain appendable past the wound.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Key: "D|MUM|s1|i10", Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	got, stats, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || stats.Quarantined != 1 {
		t.Fatalf("after append past wound: %d records, stats %+v", len(got), stats)
	}
}

// TestV1JournalRejected pins the end of the v1 format: a journal with a
// version-1 header is refused whole by the version check, and an unframed
// JSON record inside a v2 journal is quarantined like any other corrupt
// line — no record is ever trusted without its CRC.
func TestV1JournalRejected(t *testing.T) {
	path := journalPath(t)
	v1 := `{"kind":"journal-header","version":1}
{"key":"A|MUM|s1|i10","attempts":1,"result":{"Benchmark":"MUM","Config":"A","Status":"ok","IPC":3.5}}
`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 journal replayed: err = %v, want a version error", err)
	}

	path = journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "B|MUM|s1|i10", Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"C|MUM|s1|i10","attempts":1,"result":{"Status":"ok"}}` + "\n")
	f.Close()
	got, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "B|MUM|s1|i10" {
		t.Fatalf("records = %+v, want only the framed one", got)
	}
	if stats.Quarantined != 1 || stats.Skipped != 0 {
		t.Errorf("stats = %+v, want the unframed line quarantined", stats)
	}
	side, err := os.ReadFile(QuarantinePath(path))
	if err != nil || !strings.Contains(string(side), `"key":"C|MUM`) {
		t.Errorf("sidecar does not hold the unframed line: %q (%v)", side, err)
	}
}

// TestJournalReadsAttemptsField: records written before the attempts count
// was dropped carry an "attempts" key inside their CRC frame. Such a
// journal still loads, and a pool resuming from it serves the stored
// Result unchanged without executing the run.
func TestJournalReadsAttemptsField(t *testing.T) {
	cfg := testCfg(t, "old")
	want := core.Result{Benchmark: "MUM", Config: "old", Status: "stall",
		IPC: 12.25, IcntCycles: 4096, ScalarInstrs: 777, AvgNetLatency: 31.5}
	res, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	payload := fmt.Sprintf(`{"key":%q,"attempts":3,"result":%s}`, Key(cfg), res)
	path := journalPath(t)
	old := `{"kind":"journal-header","version":2}` + "\n" + string(frameRecord([]byte(payload)))
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (Record{Key: Key(cfg), Result: want}) || stats != (ReplayStats{}) {
		t.Fatalf("records = %+v, stats %+v, want the one stored record", recs, stats)
	}
	var calls atomic.Int64
	p := newPool(t, Options{Jobs: 1, Checkpoint: path, Resume: true,
		Run: func(ctx context.Context, c core.Config) (core.Result, error) {
			calls.Add(1)
			return okRun(ctx, c)
		}})
	if out := doOne(p, cfg); !out.Resumed || out.Result != want || calls.Load() != 0 {
		t.Errorf("resumed outcome %+v after %d executions, want the stored result and none", out, calls.Load())
	}
}

func TestLoadJournalMissingFile(t *testing.T) {
	recs, stats, err := LoadJournal(journalPath(t))
	if err != nil || recs != nil || stats != (ReplayStats{}) {
		t.Errorf("missing journal: recs=%v stats=%+v err=%v, want all zero", recs, stats, err)
	}
}

func TestLoadJournalRejectsFutureVersion(t *testing.T) {
	path := journalPath(t)
	os.WriteFile(path, []byte(`{"kind":"journal-header","version":999}`+"\n"), 0o644)
	if _, _, err := LoadJournal(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version journal accepted: %v", err)
	}
}

// TestWoundedJournalRefusesThenHeals: an append that fails fsync wounds
// the journal (read-only, error surfaced); once the fault clears the next
// append heals — truncating back to the durable boundary — and the file
// replays with zero corruption.
func TestWoundedJournalRefusesThenHeals(t *testing.T) {
	ff := iofault.NewFaultFS(iofault.OS)
	path := journalPath(t)
	j, err := OpenJournalFS(ff, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Key: "A|MUM|s1|i1", Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatal(err)
	}

	ff.Inject(iofault.Fault{Op: "sync", Err: syscall.ENOSPC})
	err = j.Append(Record{Key: "B|MUM|s1|i1", Result: core.Result{Status: "ok"}})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append under ENOSPC = %v, want ENOSPC", err)
	}
	if j.Wounded() == nil {
		t.Fatal("journal not wounded after fsync failure")
	}
	// While wounded and the disk still broken, appends refuse loudly.
	ff.Inject(iofault.Fault{Op: "truncate", Err: syscall.EIO})
	if err := j.Append(Record{Key: "C|MUM|s1|i1", Result: core.Result{Status: "ok"}}); !errors.Is(err, ErrWounded) {
		t.Fatalf("wounded append = %v, want ErrWounded", err)
	}

	// Fault cleared: the next append heals (truncate to the durable
	// boundary) and succeeds.
	if err := j.Append(Record{Key: "D|MUM|s1|i1", Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if j.Wounded() != nil {
		t.Errorf("journal still wounded after heal: %v", j.Wounded())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 0 || stats.Skipped != 0 {
		t.Errorf("healed journal replays dirty: %+v", stats)
	}
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if len(recs) != 2 || recs[0].Key != "A|MUM|s1|i1" || recs[1].Key != "D|MUM|s1|i1" {
		t.Fatalf("healed journal holds %v, want [A D]", keys)
	}
}

// TestJournalPowerCut drives the nastiest realistic wound: a filesystem
// that acknowledges fsync without making data durable, then loses power.
// Only the honestly-synced prefix survives; replay must recover every
// record in it, quarantine or skip the garbage, and never fabricate a
// record (zero false positives).
func TestJournalPowerCut(t *testing.T) {
	for _, garble := range []bool{false, true} {
		ff := iofault.NewFaultFS(iofault.OS)
		path := journalPath(t)
		j, err := OpenJournalFS(ff, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Key: "durable|MUM|s1|i1", Result: core.Result{Status: "ok", IPC: 1}}); err != nil {
			t.Fatal(err)
		}
		// From here on, fsync lies: records appear committed but are not.
		ff.DropSyncs(true)
		for _, key := range []string{"lost1|MUM|s1|i1", "lost2|MUM|s1|i1"} {
			if err := j.Append(Record{Key: key, Result: core.Result{Status: "ok"}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ff.PowerCut(1234, garble); err != nil {
			t.Fatal(err)
		}

		recs, stats, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, r := range recs {
			found[r.Key] = true
			switch r.Key {
			case "durable|MUM|s1|i1", "lost1|MUM|s1|i1", "lost2|MUM|s1|i1":
			default:
				t.Fatalf("garble=%v: replay fabricated record %+v", garble, r)
			}
		}
		if !found["durable|MUM|s1|i1"] {
			t.Fatalf("garble=%v: honestly-synced record lost: %+v", garble, recs)
		}
		// Whatever survived of the unsynced tail must be either a bit-exact
		// record (kept), garbage (quarantined/skipped) — never a corrupted
		// record accepted as valid. CRC gives us that; here we just assert
		// the loader terminated with sane accounting.
		if stats.Quarantined < 0 || stats.Skipped > 1 {
			t.Errorf("garble=%v: stats = %+v", garble, stats)
		}

		// The journal must reopen and accept new records after the cut.
		j2, err := OpenJournalFS(iofault.NewFaultFS(iofault.OS), path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j2.Append(Record{Key: "post|MUM|s1|i1", Result: core.Result{Status: "ok"}}); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		recs2, _, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if !containsKey(recs2, "post|MUM|s1|i1") || !containsKey(recs2, "durable|MUM|s1|i1") {
			t.Fatalf("garble=%v: post-cut append lost records: %+v", garble, recs2)
		}
	}
}

func containsKey(recs []Record, key string) bool {
	for _, r := range recs {
		if r.Key == key {
			return true
		}
	}
	return false
}

// TestResumeSkipsFinishedRuns is the core checkpoint contract: a second
// pool resuming the journal must not re-execute journaled runs, and the
// journal must never hold a duplicate key.
func TestResumeSkipsFinishedRuns(t *testing.T) {
	path := journalPath(t)
	cfgA, cfgB, cfgC := testCfg(t, "A"), testCfg(t, "B"), testCfg(t, "C")

	p1, err := New(context.Background(), Options{Jobs: 2, Checkpoint: path, Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	p1.Do(context.Background(), cfgA, cfgB)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	executed := make(map[string]int)
	p2, err := New(context.Background(), Options{Jobs: 2, Checkpoint: path, Resume: true,
		Run: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			executed[cfg.Name]++
			return okRun(ctx, cfg)
		}})
	if err != nil {
		t.Fatal(err)
	}
	outs := p2.Do(context.Background(), cfgA, cfgB, cfgC)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	if len(executed) != 1 || executed["C"] != 1 {
		t.Errorf("resumed pool executed %v, want only C once", executed)
	}
	if !outs[0].Resumed || !outs[1].Resumed || outs[2].Resumed {
		t.Errorf("resumed flags = %v %v %v, want true true false",
			outs[0].Resumed, outs[1].Resumed, outs[2].Resumed)
	}
	recs, _, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3 (A, B, C once each)", len(recs))
	}
	seen := make(map[string]bool)
	for _, r := range recs {
		if seen[r.Key] {
			t.Errorf("journal key %s appears twice: a finished run re-executed", r.Key)
		}
		seen[r.Key] = true
	}
}

// Canceled and timed-out runs are not "finished": they must not be
// journaled or counted as records, so a resumed sweep re-executes them.
func TestTransientOutcomesNotJournaled(t *testing.T) {
	for _, status := range []string{"timeout", "canceled"} {
		path := journalPath(t)
		p, err := New(context.Background(), Options{Jobs: 1, Checkpoint: path,
			Run: func(_ context.Context, cfg core.Config) (core.Result, error) {
				return core.Result{Benchmark: cfg.Workload.Abbr, Config: cfg.Name, Status: status}, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		doOne(p, testCfg(t, "slow"))
		if p.Records() != 0 {
			t.Errorf("%s outcome counted as %d record(s)", status, p.Records())
		}
		p.Close()
		recs, _, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("%s outcome journaled: %+v", status, recs)
		}
	}
}

// TestLoadJournalTruncatedFinalLine covers the canonical crash wound in
// isolation: a journal whose final record was torn mid-write (no garbage
// lines, no trailing newline). Every intact record loads, the torn line is
// counted exactly once for the caller's warning, and reopening the journal
// seals the tear so the next record starts cleanly (after which the sealed
// wreckage reads as one quarantined line, not a tear).
func TestLoadJournalTruncatedFinalLine(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"A|MUM|s1|i10", "B|MUM|s1|i10"} {
		if err := j.Append(Record{Key: key, Result: core.Result{Status: "ok", IPC: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the last record the way kill -9 during write(2) would: keep a
	// prefix of its frame with no newline.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`*deadbeef 52 {"key":"C|MUM|s1|i10","attempts":1,"result":{"IPC":`)
	f.Close()

	recs, stats, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "A|MUM|s1|i10" || recs[1].Key != "B|MUM|s1|i10" {
		t.Fatalf("records after torn final line: %+v, want the two intact ones", recs)
	}
	if stats.Skipped != 1 || stats.Quarantined != 0 {
		t.Errorf("stats = %+v, want 1 skipped (the torn final line), 0 quarantined", stats)
	}

	// Reopen-and-append must seal the tear: the new record lands on its
	// own line and both it and the intact prefix survive a second load.
	// The sealed wreckage is now a complete (newline-terminated) corrupt
	// line, so it moves from "skipped" to "quarantined".
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(Record{Key: "D|MUM|s1|i10", Result: core.Result{Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, stats, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Key != "D|MUM|s1|i10" {
		t.Fatalf("after sealing: recs=%+v, want 3 records", recs)
	}
	if stats.Quarantined != 1 || stats.Skipped != 0 {
		t.Errorf("after sealing: stats = %+v, want the sealed tear quarantined", stats)
	}
	if len(full) == 0 {
		t.Fatal("journal unexpectedly empty before the tear")
	}
}
