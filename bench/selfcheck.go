package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is what one plain invocation of this binary reported.
type childRun struct {
	res    resultLine
	digest string // of everything it simulated
}

// runChild runs one plain invocation of this binary.
func runChild(exe, workload string, seed uint64, seconds float64, stderr io.Writer) (childRun, error) {
	var run childRun
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return run, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &run.res); err != nil {
		return run, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte(digestPrefix)); ok {
			run.digest, _, _ = strings.Cut(string(rest), " ")
		}
		if bytes.HasPrefix(l, []byte("plain pass wall")) {
			fmt.Fprintf(stderr, "  %s\n", l)
		}
	}
	return run, nil
}

// selfCheck is the acceptance evidence: two sets of n plain runs per
// workload, every run in its own process, workloads alternating, both sets
// over the same seeds 1..n. Per metric it prints both medians, both
// quartile spreads (Q3-Q1 over the median) and whether the spreads stay
// within the bound and the second median is no worse than the first by
// more than the bound. The two processes that ran one (workload, seed) must
// have simulated the same thing.
func selfCheck(stdout, stderr io.Writer, n int, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	digests := map[string]string{} // workload and seed -> what set 1 simulated
	failed, differ := 0, 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, wl := range allWorkloads {
				seed := uint64(i + 1)
				run, err := runChild(exe, wl, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				failed += run.res.Failed
				key := fmt.Sprintf("%s seed %d", wl, seed)
				if first, seen := digests[key]; !seen {
					digests[key] = run.digest
				} else if run.digest != first || first == "" {
					differ++
					fmt.Fprintf(stderr, "bench: %s simulated %q in set 1 and %q in set 2\n", key, first, run.digest)
				}
				if values[set][wl] == nil {
					values[set][wl] = map[string][]float64{}
				}
				for name, mv := range run.res.Metrics {
					values[set][wl][name] = append(values[set][wl][name], mv.Value)
				}
				fmt.Fprintf(stderr, "set %d run %d/%d %s: wall_s %.4f setup_s %.5f peak_rss_mb %.2f digest %s\n", set+1, i+1, n, key,
					run.res.Metrics["wall_s"].Value, run.res.Metrics["setup_s"].Value, run.res.Metrics["peak_rss_mb"].Value, run.digest)
			}
		}
	}

	fmt.Fprintln(stdout, hostLine(pinProcs()))
	fmt.Fprintf(stdout, "selfcheck: 2 sets x %d runs x %d workloads, %g s each, seeds 1..%d in both sets\n", n, len(allWorkloads), seconds, n)
	fmt.Fprintf(stdout, "%-18s %-18s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "bound", "verdict")
	bad := 0
	for _, wl := range allWorkloads {
		for _, m := range endToEnd {
			_, a, _ := quartiles(values[0][wl][m.Name])
			_, b, _ := quartiles(values[1][wl][m.Name])
			spreadA, spreadB := spread(values[0][wl][m.Name]), spread(values[1][wl][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			// The driver does not judge setup_s by its spread.
			widest := max(spreadA, spreadB)
			if m.Name == "setup_s" {
				widest = 0
			}
			verdict := "pass"
			switch {
			case worse > m.Bound:
				verdict = "FAIL: second median worse by more than the bound"
				bad++
			case widest > m.Bound:
				verdict = "FAIL: spread exceeds the bound"
				bad++
			case widest > m.Bound/3:
				verdict = "pass (spread above a third of the bound)"
			}
			fmt.Fprintf(stdout, "%-18s %-18s %14.6g %14.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl, m.Name, a, b, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "failed operations over all runs: %d; (workload, seed) pairs whose two processes simulated different outputs: %d of %d\n",
		failed, differ, len(digests))
	if bad > 0 || failed > 0 || differ > 0 {
		return 1
	}
	return 0
}
