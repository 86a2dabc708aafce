package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, which has exactly these keys.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const benchmarkJSON = "../BENCHMARK.json"

// fromManifest renders the Go manifest in BENCHMARK.json's shape.
func fromManifest() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadInfos {
		f.Workloads = append(f.Workloads, fileWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, filePerLayer{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestManifestMatchesBenchmarkJSON fails when the metric list -list prints,
// the workload names or their reasons disagree with BENCHMARK.json. Run with
// UPDATE_BENCHMARK_JSON=1 to rewrite the file from the Go manifest.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want := fromManifest()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(want); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkJSON, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract has exactly 6", len(keys))
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json disagrees with bench/manifest.go\n got %+v\nwant %+v", got, want)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
}

// TestManifestWithinLimits checks the manifest against the limits the
// driver refuses a benchmark for.
func TestManifestWithinLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadInfos); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for i, w := range workloadInfos {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why is %d characters or not one line", w.Name, len(w.Why))
		}
		if w.Name != allWorkloads[i] {
			t.Errorf("workloadInfos[%d] is %s, allWorkloads has %s", i, w.Name, allWorkloads[i])
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	largest := 0.0
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
		if !reflect.DeepEqual(m.On, allWorkloads) {
			t.Errorf("%s: every workload must report every end-to-end metric", m.Name)
		}
	}
	setup, ok := findMetric(endToEnd, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must exist with unit s, better lower and the largest bound: %+v", setup)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed form", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Help == "" {
			t.Errorf("%s: no description", m.Name)
		}
		for _, w := range m.On {
			if !slices.Contains(allWorkloads, w) {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
}

// TestInteractionsNameKnownMetrics keeps the interaction map in step with
// the metric and workload names.
func TestInteractionsNameKnownMetrics(t *testing.T) {
	for _, it := range interactions {
		if !slices.Contains(allWorkloads, it.Workload) {
			t.Errorf("interaction on unknown workload %q", it.Workload)
		}
		for _, n := range it.Layer {
			m, ok := findMetric(perLayer, n)
			if !ok {
				t.Errorf("interaction names unknown per-layer metric %q", n)
			} else if len(it.EndToEnd) > 0 && !m.on(it.Workload) {
				t.Errorf("interaction expects %s to move %v on %s, where it is always zero", n, it.EndToEnd, it.Workload)
			}
		}
		for _, n := range it.EndToEnd {
			if _, ok := findMetric(endToEnd, n); !ok {
				t.Errorf("interaction names unknown end-to-end metric %q", n)
			}
		}
	}
}

// TestListPrintsEveryName checks -list against the manifest.
func TestListPrintsEveryName(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, w := range workloadInfos {
		if !strings.Contains(out.String(), w.Name) {
			t.Errorf("-list does not print workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(out.String(), "  "+m.Name+" ") {
			t.Errorf("-list does not print metric %s", m.Name)
		}
	}
}
