package noc

import (
	"fmt"
	"testing"
)

// BenchmarkCycleKernel measures the steady-state cost of one interconnect
// cycle (one op = one Tick) under a closed-loop request/reply protocol:
// every compute node keeps a fixed number of read requests outstanding to
// the memory-controller tiles, and each MC echoes a 4-flit reply. The
// harness itself is allocation-free (packet pool, preallocated backlogs),
// so allocs/op isolates the cycle kernel's own heap traffic — the number
// the allocation-free refactor drives to zero.
//
// Capture before/after numbers with scripts/bench.sh (emits BENCH_<date>.json).
func BenchmarkCycleKernel(b *testing.B) {
	b.Run("low-load", func(b *testing.B) { benchCycleKernel(b, DefaultConfig(), 1) })
	b.Run("high-load", func(b *testing.B) { benchCycleKernel(b, DefaultConfig(), 8) })
	b.Run("checkerboard", func(b *testing.B) { benchCycleKernel(b, checkerboardKernelConfig(), 4) })
	// High load with a 3-cycle credit return: a freed slot's credit stays in
	// the downstream VC's pop window for several cycles.
	b.Run("credit-latency-3", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.CreditLatency = 3
		benchCycleKernel(b, cfg, 8)
	})
	// Two injection and two ejection ports at the MC routers (Fig 19's
	// 2P/2E): two flits can eject at one node in a cycle.
	b.Run("multiport-ej", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.MCInjPorts = 2
		cfg.MCEjPorts = 2
		benchCycleKernel(b, cfg, 8)
	})
	// Convergence tail: the network drains after a burst, so most tiles are
	// idle most cycles — the case active-component lists exist for.
	b.Run("drain-tail", func(b *testing.B) { benchDrainTail(b, DefaultConfig()) })
}

// checkerboardKernelConfig is the CycleKernel/checkerboard network: the
// checkerboard mesh with two-phase routing, 4 VCs and two MC injection ports.
func checkerboardKernelConfig() Config {
	cfg := DefaultConfig()
	cfg.Checkerboard = true
	cfg.Routing = RoutingCheckerboard
	cfg.NumVCs = 4
	cfg.MCs = CheckerboardPlacement(6, 6, 8)
	cfg.MCInjPorts = 2
	return cfg
}

// BenchmarkBackendKernel measures the cycle kernel across the topology
// backends at two scales — the paper's 6×6 and a 12×12 stress geometry —
// under the same closed-loop request/reply protocol. Identical harness,
// identical load, so the rows compare what a tick costs on each substrate
// (and keep the 0 allocs/op gate honest on every backend's hot path).
func BenchmarkBackendKernel(b *testing.B) {
	for _, kind := range []BackendKind{BackendMesh, BackendRing, BackendBaseJump} {
		for _, dim := range []struct{ w, h int }{{6, 6}, {12, 12}} {
			cfg := backendKernelConfig(kind, dim.w, dim.h)
			b.Run(fmt.Sprintf("%s-%dx%d", kind, dim.w, dim.h), func(b *testing.B) {
				benchCycleKernel(b, cfg, 4)
			})
		}
	}
}

// backendKernelConfig is the BackendKernel network of one backend kind on a
// w×h geometry.
func backendKernelConfig(kind BackendKind, w, h int) Config {
	cfg := DefaultConfig()
	if w != 6 || h != 6 {
		cfg.Width, cfg.Height = w, h
		cfg.MCs = TopBottomPlacement(w, h, 8)
	}
	switch kind {
	case BackendRing:
		cfg.Topology = BackendRing
		cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 4, 4, 2
	case BackendBaseJump:
		cfg.Topology = BackendBaseJump
		cfg.FlitBytes, cfg.NumVCs, cfg.BufDepth, cfg.RouterStages = 64, 2, 2, 2
	}
	return cfg
}

// BenchmarkNewMesh measures building one network (one op = one NewMesh) on
// the paper's 6×6 geometry for each backend family: the construction cost
// every simulated run pays once, on a backend the cache already holds after
// the first op. allocs/op is the construction gate's count.
func BenchmarkNewMesh(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"checkerboard", checkerboardKernelConfig()},
		{"ring", backendKernelConfig(BackendRing, 6, 6)},
		{"basejump", backendKernelConfig(BackendBaseJump, 6, 6)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustNewMesh(tc.cfg)
			}
		})
	}
}

// benchCycleKernel drives cfg with `outstanding` requests in flight per
// compute node, warms the queues to steady state, then times b.N ticks.
func benchCycleKernel(b *testing.B, cfg Config, outstanding int) {
	m := MustNewMesh(cfg)
	backend := m.Backend()
	comp := backend.ComputeNodes()
	mcs := backend.MCs()
	var pool PacketPool
	inflight := make([]int, len(comp))
	// Reply backlog per MC, preallocated to the in-flight bound so the
	// harness never allocates mid-measurement.
	backlog := make([][]*Packet, len(mcs))
	mcOf := make([]int, backend.NumNodes()) // node -> index in mcs
	for i, mc := range mcs {
		backlog[i] = make([]*Packet, 0, outstanding*len(comp))
		mcOf[mc] = i
	}
	rr := 0

	tick := func() {
		for i, c := range comp {
			for inflight[i] < outstanding {
				p := pool.Get()
				p.Src, p.Dst = c, mcs[rr%len(mcs)]
				p.Class, p.Bytes = ClassRequest, 8
				p.Line = uint64(i) // requester index rides in the typed payload
				rr++
				if !m.TryInject(p) {
					pool.Put(p)
					break
				}
				inflight[i]++
			}
		}
		for _, pkt := range m.Delivered() {
			if pkt.Class == ClassRequest {
				r := pool.Get()
				r.Src, r.Dst = pkt.Dst, pkt.Src
				r.Class, r.Bytes = ClassReply, 64
				r.Line = pkt.Line
				j := mcOf[pkt.Dst]
				backlog[j] = append(backlog[j], r)
			} else {
				inflight[pkt.Line]--
			}
			pool.Put(pkt)
		}
		for j := range mcs {
			q := backlog[j]
			n := 0
			for _, r := range q {
				if !m.TryInject(r) {
					break
				}
				n++
			}
			backlog[j] = q[:copy(q, q[n:])]
		}
		m.Tick()
	}

	for i := 0; i < 3000; i++ { // warm to steady state
		tick()
	}
	st := m.Stats()
	warmHops := st.FlitHops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if st.Cycles > 0 {
		b.ReportMetric(float64(st.FlitHops)/float64(st.Cycles), "hops/cycle")
	}
	// Cost per unit of work moved, over the timed ticks only: the number a
	// kernel change should shrink, comparable across loads and mesh sizes
	// where ns/op is not.
	if hops := st.FlitHops - warmHops; hops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops), "ns/flit-hop")
	}
}

// benchDrainTail times the idle-dominated convergence tail: a short burst of
// traffic, then ticks on a draining (and eventually empty) network.
func benchDrainTail(b *testing.B, cfg Config) {
	m := MustNewMesh(cfg)
	backend := m.Backend()
	comp := backend.ComputeNodes()
	mcs := backend.MCs()
	var pool PacketPool
	for i, c := range comp {
		p := pool.Get()
		p.Src, p.Dst = c, mcs[i%len(mcs)]
		p.Class, p.Bytes = ClassRequest, 8
		m.TryInject(p)
	}
	for i := 0; i < 200 && !m.Quiet(); i++ { // let the burst drain
		m.Tick()
		for _, pkt := range m.Delivered() {
			pool.Put(pkt)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}
