// Package stats provides the small statistics toolkit used across the
// simulator: accumulators for means (arithmetic and harmonic — the paper
// reports harmonic-mean speedups), rate trackers, and histograms for
// latency distributions.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean accumulates values for an arithmetic mean.
type Mean struct {
	sum float64
	n   int
}

// Add records one value.
func (m *Mean) Add(v float64) { m.sum += v; m.n++ }

// N returns the number of recorded values.
func (m *Mean) N() int { return m.n }

// Merge returns a Mean combining the samples of m and o.
func (m Mean) Merge(o Mean) Mean { return Mean{sum: m.sum + o.sum, n: m.n + o.n} }

// Sum returns the running sum.
func (m *Mean) Sum() float64 { return m.sum }

// Value returns the arithmetic mean, or 0 if no values were recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// HarmonicMean returns the harmonic mean of vs, the aggregate the paper uses
// for cross-benchmark speedups. Returns 0 for an empty slice and panics on
// non-positive values, which have no harmonic mean.
func HarmonicMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	recip := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: harmonic mean of non-positive value %v", v))
		}
		recip += 1 / v
	}
	return float64(len(vs)) / recip
}

// ArithmeticMean returns the arithmetic mean of vs (0 for empty input).
func ArithmeticMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// IntDist accumulates small non-negative integer samples — per-packet
// retry counts, hop counts — keeping exact per-value counts for the low
// values and an overflow tally above Cap.
type IntDist struct {
	counts [16]uint64 // counts[v] for v in [0,15]
	over   uint64     // samples above 15
	n      uint64
	sum    uint64
	max    int
}

// Add records one sample (negative values clamp to 0).
func (d *IntDist) Add(v int) {
	if v < 0 {
		v = 0
	}
	d.n++
	d.sum += uint64(v)
	if v > d.max {
		d.max = v
	}
	if v < len(d.counts) {
		d.counts[v]++
	} else {
		d.over++
	}
}

// N returns the number of samples.
func (d *IntDist) N() uint64 { return d.n }

// Sum returns the running total.
func (d *IntDist) Sum() uint64 { return d.sum }

// Max returns the largest sample seen (0 when empty).
func (d *IntDist) Max() int { return d.max }

// Count returns how many samples equalled v exactly (0 for v > 15).
func (d *IntDist) Count(v int) uint64 {
	if v < 0 || v >= len(d.counts) {
		return 0
	}
	return d.counts[v]
}

// Mean returns the sample mean (0 when empty).
func (d *IntDist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// Merge returns an IntDist combining the samples of d and o.
func (d IntDist) Merge(o IntDist) IntDist {
	out := d
	for i := range out.counts {
		out.counts[i] += o.counts[i]
	}
	out.over += o.over
	out.n += o.n
	out.sum += o.sum
	if o.max > out.max {
		out.max = o.max
	}
	return out
}

// Histogram is a fixed-width bucket histogram with an overflow bucket,
// used for packet-latency distributions.
type Histogram struct {
	bucketWidth float64
	counts      []uint64
	overflow    uint64
	sum         float64
	n           uint64
	max         float64
}

// NewHistogram creates a histogram with nBuckets buckets of the given width.
func NewHistogram(bucketWidth float64, nBuckets int) *Histogram {
	if bucketWidth <= 0 || nBuckets <= 0 {
		panic("stats: histogram needs positive bucket width and count")
	}
	return &Histogram{bucketWidth: bucketWidth, counts: make([]uint64, nBuckets)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
	idx := int(v / h.bucketWidth)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[idx]++
}

// N returns the number of samples.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns an approximate p-quantile (p in [0,1]) using bucket
// upper bounds; overflow samples report as +Inf.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return float64(i+1) * h.bucketWidth
		}
	}
	return math.Inf(1)
}

// Dominates reports whether design point a Pareto-dominates design point b
// on the throughput-effectiveness plane: at least as much throughput for at
// most the area, strictly better on one axis. Ties on both axes do not
// dominate, so exact duplicates coexist on a frontier.
func Dominates(ipcA, areaA, ipcB, areaB float64) bool {
	if areaA > areaB || ipcA < ipcB {
		return false
	}
	return ipcA > ipcB || areaA < areaB
}

// ParetoFrontier returns the indices of the non-dominated points among
// (ipc[i], area[i]), sorted by area ascending then IPC descending then index.
// ipc and area must have equal length.
func ParetoFrontier(ipc, area []float64) []int {
	if len(ipc) != len(area) {
		panic("stats: ParetoFrontier needs matching ipc/area lengths")
	}
	var out []int
	for i := range ipc {
		dominated := false
		for j := range ipc {
			if i != j && Dominates(ipc[j], area[j], ipc[i], area[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if area[i] != area[j] {
			return area[i] < area[j]
		}
		if ipc[i] != ipc[j] {
			return ipc[i] > ipc[j]
		}
		return i < j
	})
	return out
}

// Table formats key/value result rows with aligned columns; the experiment
// harness uses it so every figure prints in a uniform shape.
type Table struct {
	name    string
	headers []string
	rows    [][]string
}

// NewTable creates a named table with the given column headers.
func NewTable(name string, headers ...string) *Table {
	return &Table{name: name, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, hdr := range t.headers {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.name)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Outcomes tallies the terminal states of a sweep's runs: how many landed
// in each status ("ok", "deadlock", "timeout", "panic", ...). The
// experiment CLIs render it as the sweep's closing DNF summary.
type Outcomes struct {
	byStatus map[string]int
	runs     int
}

// Observe records one run's terminal status; an empty status counts as
// "ok".
func (o *Outcomes) Observe(status string) {
	if o.byStatus == nil {
		o.byStatus = make(map[string]int)
	}
	if status == "" {
		status = "ok"
	}
	o.byStatus[status]++
	o.runs++
}

// Total returns the number of observed runs.
func (o *Outcomes) Total() int { return o.runs }

// DNF returns how many runs did not finish cleanly.
func (o *Outcomes) DNF() int { return o.Total() - o.byStatus["ok"] }

// Count returns how many runs ended with the given status.
func (o *Outcomes) Count(status string) int { return o.byStatus[status] }

// Table renders the per-status counts, sorted by status for diff-stable
// output.
func (o *Outcomes) Table() *Table {
	tb := NewTable("run outcomes", "status", "runs", "share")
	statuses := make([]string, 0, len(o.byStatus))
	for s := range o.byStatus {
		statuses = append(statuses, s)
	}
	sort.Strings(statuses)
	total := o.Total()
	for _, s := range statuses {
		n := o.byStatus[s]
		tb.AddRow(s, n, fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total)))
	}
	return tb
}

// Summary renders the one-line sweep verdict the CLIs print after the
// tables, e.g. "12 runs: 10 ok, 2 DNF".
func (o *Outcomes) Summary() string {
	if o.Total() == 0 {
		return "0 runs"
	}
	return fmt.Sprintf("%d runs: %d ok, %d DNF", o.Total(), o.byStatus["ok"], o.DNF())
}
