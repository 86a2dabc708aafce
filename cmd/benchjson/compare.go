package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// FamilyDelta is one benchmark family's change between two captures: the
// geometric mean, over the rows both captures share, of after/before ns/op
// and of after/before allocs/op, as percentage deltas (negative is faster
// or leaner).
type FamilyDelta struct {
	Family      string
	Rows        int
	NsDelta     float64 // percent
	AllocsDelta float64 // percent; rows compare as (allocs+1) so 0 allocs/op is defined
	Regressed   bool    // either delta exceeds the noise threshold
}

// loadCapture reads a capture file and selects one capture from it: the
// last one, or with a "#label" suffix on the path, the last one carrying
// that label (a before/after pair usually shares one file).
func loadCapture(arg string) (Capture, error) {
	path, label, byLabel := strings.Cut(arg, "#")
	raw, err := os.ReadFile(path)
	if err != nil {
		return Capture{}, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return Capture{}, fmt.Errorf("%s is not a capture file: %v", path, err)
	}
	for i := len(f.Captures) - 1; i >= 0; i-- {
		if !byLabel || f.Captures[i].Label == label {
			return f.Captures[i], nil
		}
	}
	if byLabel {
		return Capture{}, fmt.Errorf("%s has no capture labelled %q", path, label)
	}
	return Capture{}, fmt.Errorf("%s holds no captures", path)
}

// compareCaptures returns the per-family deltas of after against before,
// sorted by family. Only rows present in both captures count, so a row added
// or dropped between captures never skews a family's mean. A family
// regresses when either delta is above thresholdPct.
func compareCaptures(before, after Capture, thresholdPct float64) []FamilyDelta {
	base := make(map[string]Benchmark, len(before.Benchmarks))
	for _, b := range before.Benchmarks {
		base[b.Name] = b
	}
	type acc struct {
		logNs, logAllocs float64
		nNs, nAllocs     int
	}
	fams := make(map[string]*acc)
	for _, b := range after.Benchmarks {
		o, ok := base[b.Name]
		if !ok {
			continue
		}
		f := family(b.Name)
		a := fams[f]
		if a == nil {
			a = &acc{}
			fams[f] = a
		}
		if on, nn := o.Metrics["ns/op"], b.Metrics["ns/op"]; on > 0 && nn > 0 {
			a.logNs += math.Log(nn / on)
			a.nNs++
		}
		oa, okO := o.Metrics["allocs/op"]
		na, okN := b.Metrics["allocs/op"]
		if okO && okN {
			a.logAllocs += math.Log((na + 1) / (oa + 1))
			a.nAllocs++
		}
	}
	pct := func(logSum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return 100 * (math.Exp(logSum/float64(n)) - 1)
	}
	out := make([]FamilyDelta, 0, len(fams))
	for f, a := range fams {
		d := FamilyDelta{
			Family:      f,
			Rows:        max(a.nNs, a.nAllocs),
			NsDelta:     pct(a.logNs, a.nNs),
			AllocsDelta: pct(a.logAllocs, a.nAllocs),
		}
		d.Regressed = d.NsDelta > thresholdPct || d.AllocsDelta > thresholdPct
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// writeComparison prints the per-family table and reports whether any
// family regressed.
func writeComparison(w io.Writer, before, after Capture, deltas []FamilyDelta, thresholdPct float64) bool {
	fmt.Fprintf(w, "old %q (%s)\nnew %q (%s)\n", before.Label, before.Host, after.Label, after.Host)
	if before.Host != after.Host {
		fmt.Fprintln(w, "warning: the captures come from different hosts; deltas mix machines")
	}
	fmt.Fprintf(w, "%-28s %5s %10s %12s  (noise threshold %+.1f%%)\n", "family", "rows", "ns/op", "allocs/op", thresholdPct)
	regressed := false
	for _, d := range deltas {
		verdict := ""
		if d.Regressed {
			verdict = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-28s %5d %+9.1f%% %+11.1f%%%s\n", d.Family, d.Rows, d.NsDelta, d.AllocsDelta, verdict)
	}
	return regressed
}

// runCompare implements `benchjson -compare old.json[#label] new.json[#label]`
// and returns the process exit code: 0 clean, 1 regression, 2 bad input.
func runCompare(args []string, thresholdPct float64, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare wants two capture files: old.json[#label] new.json[#label]")
		return 2
	}
	before, err := loadCapture(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	after, err := loadCapture(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	deltas := compareCaptures(before, after, thresholdPct)
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: the captures share no benchmark rows")
		return 2
	}
	if writeComparison(w, before, after, deltas, thresholdPct) {
		return 1
	}
	return 0
}
