package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzipped protobuf runtime/pprof writes (profile.proto
// of github.com/google/pprof), enough to attribute every CPU sample to the
// package of its leaf frame. The standard library ships the writer but not
// a reader, and the benchmark may not add a dependency.

// Field numbers of profile.proto used below.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("pprof: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, wire type, and either the varint
// value or the length-delimited bytes. Fixed-width fields are skipped by
// returning their raw bytes.
func (p *pbuf) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		data, err = p.take(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			data, err = p.take(n)
		}
	case 5:
		data, err = p.take(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

func (p *pbuf) take(n uint64) ([]byte, error) {
	if uint64(len(p.b)) < n {
		return nil, errTruncated
	}
	d := p.b[:n]
	p.b = p.b[n:]
	return d, nil
}

// repeatedVarint appends one occurrence of a repeated integer field, which
// the writer may have packed.
func repeatedVarint(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSampleRec struct {
	locs   []uint64
	values []uint64
}

// cpuProfile is the part of a parsed profile the attribution needs.
type cpuProfile struct {
	sampleTypes []uint64            // string index of each value's type
	samples     []profSampleRec     //
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcNames   map[uint64]uint64   // function id -> string index of its name
	strings     []string
}

// parseCPUProfile reads a profile as runtime/pprof.StopCPUProfile leaves it.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	prof := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, wire, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		if wire != 2 {
			continue
		}
		switch field {
		case profSampleType:
			m := pbuf{data}
			var typ uint64
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if f == valueTypeType {
					typ = v
				}
			}
			prof.sampleTypes = append(prof.sampleTypes, typ)
		case profSample:
			var s profSampleRec
			m := pbuf{data}
			for len(m.b) > 0 {
				f, w, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case sampleLocationID:
					s.locs, err = repeatedVarint(s.locs, w, v, d)
				case sampleValue:
					s.values, err = repeatedVarint(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			prof.samples = append(prof.samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, _, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case locationID:
					id = v
				case locationLine:
					l := pbuf{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == lineFunctionID {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			prof.locFuncs[id] = funcs
		case profFunction:
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case functionID:
					id = v
				case functionName:
					name = v
				}
			}
			prof.funcNames[id] = name
		case profStringTable:
			prof.strings = append(prof.strings, string(data))
		}
	}
	return prof, nil
}

func (p *cpuProfile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// leafFunction names the function a sample was executing: the first line of
// its first location, which for an inlined call is the inlined function
// itself (ring.Pop inside a noc caller), not the frame it was inlined into.
func (p *cpuProfile) leafFunction(s profSampleRec) string {
	if len(s.locs) == 0 {
		return ""
	}
	funcs := p.locFuncs[s.locs[0]]
	if len(funcs) == 0 {
		return ""
	}
	return p.str(p.funcNames[funcs[0]])
}

// cpuByLayer sums the profile's CPU time per layer of the leaf frame. It
// returns seconds per layer, the total seconds and the sample count; the
// per-layer values add up to the total because every sample lands in
// exactly one layer ("other" when its leaf has no Go package).
func (p *cpuProfile) cpuByLayer() (layers map[string]float64, total float64, samples uint64) {
	cpuIdx, countIdx := len(p.sampleTypes)-1, 0
	for i, t := range p.sampleTypes {
		switch p.str(t) {
		case "cpu":
			cpuIdx = i
		case "samples":
			countIdx = i
		}
	}
	layers = map[string]float64{}
	for _, s := range p.samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) {
			continue
		}
		sec := float64(int64(s.values[cpuIdx])) / 1e9
		layers[layerOf(p.leafFunction(s))] += sec
		total += sec
		if countIdx < len(s.values) {
			samples += s.values[countIdx]
		}
	}
	return layers, total, samples
}

// packageOf returns the import path of a symbol as the Go linker names it:
// "repro/internal/noc.(*router).tick" -> "repro/internal/noc". Type
// arguments may contain slashes and dots, so they are cut first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// layerOf maps a leaf function to the layer that owns its CPU time.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "":
		return "other"
	case strings.HasPrefix(pkg, "repro/internal/"):
		layer := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(layer, '/'); i >= 0 {
			layer = layer[:i]
		}
		return layer
	case pkg == "main" || strings.HasPrefix(pkg, "repro/bench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		pkg == "syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "go_runtime"
	case strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return "stdlib"
}
