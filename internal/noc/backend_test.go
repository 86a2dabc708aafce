package noc

import "testing"

// backendConfigs returns one buildable configuration per topology backend,
// tuned the way the core design points tune them.
func backendConfigs() map[string]Config {
	mesh := DefaultConfig()
	ring := DefaultConfig()
	ring.Topology = BackendRing
	ring.NumVCs = 4
	ring.BufDepth = 4
	ring.RouterStages = 2
	bj := DefaultConfig()
	bj.Topology = BackendBaseJump
	bj.FlitBytes = 64
	bj.NumVCs = 2
	bj.BufDepth = 2
	bj.RouterStages = 2
	return map[string]Config{"mesh": mesh, "ring": ring, "basejump": bj}
}

// TestLinkCountMatchesClosedForms holds the Neighbor walk the kernel wires
// to the textbook channel counts: 2·(W·(H−1) + H·(W−1)) for a W×H mesh and
// 2·N for an N-node bidirectional ring.
func TestLinkCountMatchesClosedForms(t *testing.T) {
	for _, g := range []struct{ w, h int }{{2, 2}, {5, 7}, {6, 6}} {
		for _, kind := range []BackendKind{BackendMesh, BackendBaseJump} {
			cfg := Config{Topology: kind, Width: g.w, Height: g.h}
			want := 2 * (g.w*(g.h-1) + g.h*(g.w-1))
			if got := LinkCount(MustBuildBackend(cfg)); got != want {
				t.Errorf("%v %dx%d: %d links, want %d", kind, g.w, g.h, got, want)
			}
		}
	}
	for _, g := range []struct{ w, h int }{{2, 2}, {6, 6}} {
		cfg := Config{Topology: BackendRing, Width: g.w, Height: g.h}
		if got, want := LinkCount(MustBuildBackend(cfg)), 2*g.w*g.h; got != want {
			t.Errorf("%d-node ring: %d links, want %d", g.w*g.h, got, want)
		}
	}
}
