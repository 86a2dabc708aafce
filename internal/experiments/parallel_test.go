package experiments

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
)

// renderQuick runs the two figures the parallel tests compare (they share
// the baseline config, exercising cross-figure memoization too).
func renderQuick(s *Suite) string {
	return s.Fig7().String() + s.Fig9().String()
}

// TestJobsDeterminism is the determinism guard: a sweep rendered with one
// worker and with eight must produce byte-identical tables, because
// figures render serially from the memoized results regardless of the
// execution schedule.
func TestJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel sweep comparison skipped in -short mode")
	}
	var outputs [2]string
	for i, jobs := range []int{1, 8} {
		s, err := New(Options{Scale: 0.1, Benchmarks: []string{"BIN", "MUM"}, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		outputs[i] = renderQuick(s)
	}
	if outputs[0] != outputs[1] {
		t.Errorf("-jobs 1 and -jobs 8 tables differ:\n--- jobs=1 ---\n%s--- jobs=8 ---\n%s",
			outputs[0], outputs[1])
	}
}

// cancelAfter cancels a context after n progress lines — the test stand-in
// for killing a sweep mid-flight.
type cancelAfter struct {
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left <= 0 {
		c.cancel()
	}
	return len(p), nil
}

// TestCheckpointResumeSweep kills a sweep after one completed run, resumes
// it from the journal, and asserts that (a) no finished run executes
// twice, (b) the resumed sweep's tables are byte-identical to an
// uninterrupted one, and (c) a corrupt journal line only costs that one
// record.
func TestCheckpointResumeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint sweep skipped in -short mode")
	}
	opts := Options{Scale: 0.1, Benchmarks: []string{"BIN", "MUM"}, Jobs: 1}

	// Uninterrupted reference.
	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderQuick(ref)
	totalRuns := ref.Executed()
	if totalRuns < 4 {
		t.Fatalf("reference sweep ran %d simulations, expected at least 4", totalRuns)
	}

	// Interrupted sweep: cancel after the first completed run.
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopts := opts
	iopts.Checkpoint = journal
	iopts.Context = ctx
	iopts.Progress = &cancelAfter{left: 1, cancel: cancel}
	interrupted, err := New(iopts)
	if err != nil {
		t.Fatal(err)
	}
	_ = renderQuick(interrupted)
	if err := interrupted.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := runner.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= totalRuns {
		t.Fatalf("interrupted journal has %d records, want in [1, %d)", len(recs), totalRuns)
	}

	// Corrupt the tail the way a crash mid-write would.
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn-`)
	f.Close()

	// Resume: finished runs must not re-execute, tables must match the
	// uninterrupted reference byte for byte.
	ropts := opts
	ropts.Checkpoint = journal
	ropts.Resume = true
	resumed, err := New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SkippedJournalLines() != 1 {
		t.Errorf("skipped journal lines = %d, want 1", resumed.SkippedJournalLines())
	}
	got := renderQuick(resumed)
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed tables differ from uninterrupted sweep:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if exec := resumed.Executed(); exec != totalRuns-len(recs) {
		t.Errorf("resumed sweep executed %d runs, want %d (total %d - %d journaled)",
			exec, totalRuns-len(recs), totalRuns, len(recs))
	}

	// Journal inspection: every key appears exactly once across the
	// interrupted and resumed passes — no run executed twice.
	final, _, err := runner.LoadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != totalRuns {
		t.Errorf("final journal has %d records, want %d", len(final), totalRuns)
	}
	seen := make(map[string]bool)
	for _, r := range final {
		if seen[r.Key] {
			t.Errorf("key %s journaled twice: a finished run re-executed", r.Key)
		}
		seen[r.Key] = true
	}
}

// TestSuiteTimeoutDNF drives a real wall-clock timeout through the whole
// suite: full-scale MUM blows the deadline and must land as one "timeout"
// DNF row, executed once, while full-scale BIN completes. MUM takes 10 to 25
// times as long as BIN (the low end under the race detector), so the
// deadline is set from a timed solo BIN run in this process: four times that
// run, and never under one second. BIN then fits and MUM does not however
// much the host or the race detector slows both.
func TestSuiteTimeoutDNF(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timeout sweep skipped in -short mode")
	}
	solo, err := New(Options{Benchmarks: []string{"BIN"}, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	_ = solo.Fig11()
	deadline := max(time.Second, 4*time.Since(begin))
	if dnf := solo.DNF(); len(dnf) != 0 {
		t.Fatalf("solo BIN did not finish: %v", dnf)
	}
	s, err := New(Options{
		Benchmarks: []string{"BIN", "MUM"},
		Jobs:       2,
		RunTimeout: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Fig11() // baseline only: one run per benchmark
	dnf := s.DNF()
	if len(dnf) != 1 {
		t.Fatalf("DNF = %v, want exactly the MUM timeout", dnf)
	}
	if dnf[0] != "TB-DOR|MUM: timeout" {
		t.Errorf("DNF line = %q, want the MUM timeout", dnf[0])
	}
	if n := s.Executed(); n != 2 {
		t.Errorf("executed %d runs, want 2: one per benchmark, no re-run", n)
	}
}
