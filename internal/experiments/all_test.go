package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsRun exercises every figure/table end to end on a tiny
// two-benchmark suite. It validates the harness plumbing, not the
// calibration (EXPERIMENTS.md records full-scale numbers). Skipped under
// -short.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	s := MustNew(Options{Scale: 0.1, Benchmarks: []string{"BIN", "MUM"}})
	for _, id := range IDs() {
		rep, err := s.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := rep.String()
		if !strings.Contains(out, rep.ID) {
			t.Errorf("%s: report does not carry its id:\n%s", id, out)
		}
		if len(rep.Summary) == 0 {
			t.Errorf("%s: no summary lines", id)
		}
		if !strings.Contains(out, "==") {
			t.Errorf("%s: missing table", id)
		}
	}
}
