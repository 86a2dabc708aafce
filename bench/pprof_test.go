package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// TestCPUProfileAttribution captures a short real CPU profile of the open
// loop on the ring backend, parses it with the bench's own protobuf reader,
// and requires the per-layer CPU seconds to add up to the profile's total
// sample time, with the simulator's own packages among the layers.
func TestCPUProfileAttribution(t *testing.T) {
	e := &env{seed: 1, small: true, workdir: t.TempDir(), chk: &checker{}, cores: map[string]int{}}
	w := newOpenLoadLat(e)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		w.pass(e)
	}
	pprof.StopCPUProfile()
	if e.chk.failed > 0 {
		t.Fatalf("open loop failed its checks: %v", e.chk.msgs)
	}

	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers, total, samples := prof.cpuByLayer()
	if samples < 10 {
		t.Skipf("only %d samples in 0.7 s: the host does not deliver profiling signals", samples)
	}
	sum := 0.0
	for layer, sec := range layers {
		if sec < 0 {
			t.Errorf("layer %s has %g s", layer, sec)
		}
		sum += sec
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("per-layer CPU seconds add up to %g, the profile holds %g", sum, total)
	}
	// 100 Hz: every sample is worth 10 ms.
	if want := float64(samples) * 0.01; math.Abs(total-want) > 1e-6 {
		t.Errorf("%d samples should be %g s, the cpu values add up to %g", samples, want, total)
	}
	if layers["noc"] <= 0 {
		t.Errorf("no CPU time attributed to noc: %v", layers)
	}
	// Among the simulator's own layers (under -race most leaves are the
	// detector's), the open loop is the network.
	sim := total - layers["go_runtime"] - layers["stdlib"] - layers["bench"] - layers["other"]
	if layers["noc"]+layers["ring"] < sim/2 {
		t.Errorf("noc+ring hold %g of the simulator's %g s on an open-loop run: %v", layers["noc"]+layers["ring"], sim, layers)
	}
}

// pb is a minimal protobuf writer for the synthetic profile below.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *pb) uintField(field int, v uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(v)
}

func (p *pb) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func msg(build func(*pb)) []byte {
	var p pb
	build(&p)
	return p.Bytes()
}

// TestInlinedLeafBelongsToItsOwnPackage builds a profile whose one location
// has ring.Pop inlined into a noc function: the sample is ring's, not noc's.
// A second sample uses unpacked location ids and has a runtime leaf.
func TestInlinedLeafBelongsToItsOwnPackage(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/ring.(*Ring[go.shape.*uint8]).Pop", "repro/internal/noc.(*router).drainEjected", "runtime.mallocgc"}
	raw := msg(func(p *pb) {
		p.bytesField(profSampleType, msg(func(p *pb) { p.uintField(1, 1); p.uintField(2, 2) }))
		p.bytesField(profSampleType, msg(func(p *pb) { p.uintField(1, 3); p.uintField(2, 4) }))
		// sample 1: packed ids and values, leaf location 1 called from 2
		p.bytesField(profSample, msg(func(p *pb) {
			p.bytesField(sampleLocationID, msg(func(p *pb) { p.varint(1); p.varint(2) }))
			p.bytesField(sampleValue, msg(func(p *pb) { p.varint(3); p.varint(30_000_000) }))
		}))
		// sample 2: unpacked, leaf location 3
		p.bytesField(profSample, msg(func(p *pb) {
			p.uintField(sampleLocationID, 3)
			p.uintField(sampleValue, 1)
			p.uintField(sampleValue, 10_000_000)
		}))
		// location 1: ring.Pop (function 1) inlined into noc (function 2)
		p.bytesField(profLocation, msg(func(p *pb) {
			p.uintField(locationID, 1)
			p.bytesField(locationLine, msg(func(p *pb) { p.uintField(lineFunctionID, 1) }))
			p.bytesField(locationLine, msg(func(p *pb) { p.uintField(lineFunctionID, 2) }))
		}))
		p.bytesField(profLocation, msg(func(p *pb) {
			p.uintField(locationID, 2)
			p.bytesField(locationLine, msg(func(p *pb) { p.uintField(lineFunctionID, 2) }))
		}))
		p.bytesField(profLocation, msg(func(p *pb) {
			p.uintField(locationID, 3)
			p.bytesField(locationLine, msg(func(p *pb) { p.uintField(lineFunctionID, 3) }))
		}))
		for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7} {
			p.bytesField(profFunction, msg(func(p *pb) { p.uintField(functionID, id); p.uintField(functionName, name) }))
		}
		for _, s := range strs {
			p.bytesField(profStringTable, []byte(s))
		}
	})
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()

	prof, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	layers, total, samples := prof.cpuByLayer()
	if samples != 4 || math.Abs(total-0.04) > 1e-12 {
		t.Errorf("got %d samples and %g s, want 4 and 0.04", samples, total)
	}
	if math.Abs(layers["ring"]-0.03) > 1e-12 || math.Abs(layers["go_runtime"]-0.01) > 1e-12 || layers["noc"] != 0 {
		t.Errorf("layers %v, want ring 0.03, go_runtime 0.01 and nothing in noc", layers)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/noc.(*router).tick":                           "noc",
		"repro/internal/ring.(*Ring[go.shape.struct { a/b.T }]).Push": "ring",
		"repro/internal/service.(*Server).runJob.func1":               "service",
		"main.(*timedNet).Tick":                                       "bench",
		"repro/bench.TestCPUProfileAttribution":                       "bench",
		"runtime.mallocgc":                                            "go_runtime",
		"internal/runtime/atomic.(*Uint32).Load":                      "go_runtime",
		"sync.(*Mutex).Lock":                                          "go_runtime",
		"sync/atomic.(*Int64).Add":                                    "go_runtime",
		"syscall.Syscall":                                             "go_runtime",
		"internal/syscall/unix.GetRandom":                             "go_runtime",
		"net/http.(*conn).serve":                                      "stdlib",
		"encoding/json.Marshal":                                       "stdlib",
		"time.Now":                                                    "stdlib",
		"":                                                            "other",
		"nodots":                                                      "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTruncatedProfileIsAnError(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{profSample<<3 | 2, 200, 1}) // claims 200 bytes, has none
	zw.Close()
	if _, err := parseCPUProfile(gz.Bytes()); err == nil {
		t.Error("a truncated profile parsed without error")
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("a profile that is not gzip parsed without error")
	}
}
