package gpu

import (
	"math"
	"testing"

	"repro/internal/addr"
	"repro/internal/ring"
	"repro/internal/workload"
)

// BenchmarkCoreTick measures the steady-state cost of one core clock cycle
// (one op = one Tick plus the memory stub's share of it) on the two
// shapes a closed-loop run spends its core ticks in:
//
//   - compute: 32 warps, no memory instructions — every fourth tick issues,
//     the rest drain the pipeline cooldown.
//   - memory: 32 warps of scattered misses behind a stub that drains one
//     request every fourth tick and answers after a fixed latency, so the
//     out-queue fills and the memQ front spends most ticks blocked.
//
// The stub is allocation-free and the warm-up grows every queue to its
// working size, so allocs/op is the core's own heap traffic; CI gates it
// at zero. Capture before/after numbers with `scripts/bench.sh <label>
// <file> gpu`.
func BenchmarkCoreTick(b *testing.B) {
	base := workload.Profile{
		Name: "bench", Abbr: "B", Class: "HH",
		Warps: 32, InstrsPerWarp: math.MaxInt32, ActiveThreads: 32,
		LinesPerMemInstr: 4, WorkingSetKB: 4096,
	}
	compute := base
	memory := base
	memory.MemFraction, memory.WriteFraction, memory.Sequential, memory.Reuse = 0.5, 0.2, 0.2, 0.1
	for _, tc := range []struct {
		name string
		prof workload.Profile
	}{{"compute", compute}, {"memory", memory}} {
		b.Run(tc.name, func(b *testing.B) {
			c := MustNew(DefaultConfig(), workload.MustNewGenerator(tc.prof, 0, 28, 1))
			m := newMemStub(c)
			for i := 0; i < 50_000; i++ {
				m.tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.tick()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/core-tick")
		})
	}
}

// memStub is a fixed-latency memory behind a narrow request port.
type memStub struct {
	core  *Core
	cycle uint64
	fills ring.Ring[stubFill] // FIFO: the latency is constant
}

type stubFill struct {
	line addr.Address
	due  uint64
}

const (
	stubLatency  = 200
	stubPopEvery = 4
)

func newMemStub(c *Core) *memStub {
	return &memStub{core: c, fills: ring.New[stubFill](stubLatency, 0)}
}

func (m *memStub) tick() {
	m.cycle++
	m.core.Tick()
	if m.cycle%stubPopEvery == 0 {
		if req, ok := m.core.PopRequest(); ok && !req.Write {
			m.fills.Push(stubFill{line: req.Line, due: m.cycle + stubLatency})
		}
	}
	for m.fills.Len() > 0 && m.fills.Front().due <= m.cycle {
		m.core.DeliverFill(m.fills.Pop().line)
	}
}
