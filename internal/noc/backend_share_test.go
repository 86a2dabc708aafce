package noc

import (
	"fmt"
	"testing"
)

// driveProtocol runs the closed-loop request/reply protocol against a
// single network for `cycles` ticks and returns a digest of its stats.
func driveProtocol(t *testing.T, m *Mesh, cycles int) string {
	t.Helper()
	backend := m.Backend()
	comp := backend.ComputeNodes()
	mcs := backend.MCs()
	var pool PacketPool
	inflight := make([]int, len(comp))
	rr := 0
	for c := 0; c < cycles; c++ {
		for i, node := range comp {
			for inflight[i] < 2 {
				p := pool.Get()
				p.Src, p.Dst = node, mcs[rr%len(mcs)]
				p.Class, p.Bytes = ClassRequest, 8
				p.Line = uint64(i)
				rr++
				if !m.TryInject(p) {
					pool.Put(p)
					break
				}
				inflight[i]++
			}
		}
		for _, mc := range mcs {
			for _, pkt := range m.Delivered(mc) {
				r := pool.Get()
				r.Src, r.Dst = mc, pkt.Src
				r.Class, r.Bytes = ClassReply, 64
				r.Line = pkt.Line
				if !m.TryInject(r) {
					pool.Put(r)
				}
				pool.Put(pkt)
			}
		}
		for _, node := range comp {
			for _, pkt := range m.Delivered(node) {
				inflight[pkt.Line]--
				pool.Put(pkt)
			}
		}
		m.Tick()
	}
	st := m.Stats()
	return fmt.Sprintf("hops=%d inj=%v ej=%v", st.FlitHops, st.InjectedFlits, st.EjectedFlits)
}

// TestSharedBackendMatchesSoloNetworks pins what core.RunLanes relies on
// when its seed replicas share one backend: network i of n built with
// NewMeshWithBackend over one BuildBackend, driven by a deterministic
// protocol, accumulates exactly the stats of a NewMesh network built with
// Seed+i. Sharing the backend changes nothing observable.
func TestSharedBackendMatchesSoloNetworks(t *testing.T) {
	for _, kind := range []BackendKind{BackendMesh, BackendRing, BackendBaseJump} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = kind
			switch kind {
			case BackendRing:
				cfg.NumVCs = 4 // dateline VC classes need the split
			case BackendBaseJump:
				cfg.FlitBytes = 64 // single-flit substrate wants line-sized flits
			}
			const nets, cycles = 3, 400
			backend, err := BuildBackend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nets; i++ {
				c := cfg
				c.Seed = cfg.Seed + uint64(i)
				shared, err := NewMeshWithBackend(c, backend)
				if err != nil {
					t.Fatal(err)
				}
				got := driveProtocol(t, shared, cycles)
				ref, err := NewMesh(c)
				if err != nil {
					t.Fatal(err)
				}
				want := driveProtocol(t, ref, cycles)
				if got != want {
					t.Errorf("network %d diverged from its solo network:\n got  %s\n want %s", i, got, want)
				}
			}
		})
	}
}
