package noc

import (
	"fmt"
	"reflect"
	"sync"
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
		for _, pkt := range m.Delivered() {
			if pkt.Class == ClassRequest {
				r := pool.Get()
				r.Src, r.Dst = pkt.Dst, pkt.Src
				r.Class, r.Bytes = ClassReply, 64
				r.Line = pkt.Line
				if !m.TryInject(r) {
					pool.Put(r)
				}
			} else {
				inflight[pkt.Line]--
			}
			pool.Put(pkt)
		}
		m.Tick()
	}
	st := m.Stats()
	return fmt.Sprintf("hops=%d inj=%v ej=%v", st.FlitHops, st.InjectedFlits, st.EjectedFlits)
}

// withFreshBackendCache runs the rest of the test against an empty backend
// cache and restores the process-wide one afterwards, so a test that fills
// the cache cannot change what later tests find in it.
func withFreshBackendCache(t *testing.T) {
	t.Helper()
	backends.mu.Lock()
	saved := backends.entries
	backends.entries = make(map[string]Backend)
	backends.mu.Unlock()
	t.Cleanup(func() {
		backends.mu.Lock()
		backends.entries = saved
		backends.mu.Unlock()
	})
}

// shareTestConfigs are one network configuration per backend family.
func shareTestConfigs() map[string]Config {
	cfgs := map[string]Config{"mesh": DefaultConfig(), "checkerboard": checkerboardKernelConfig()}
	ring := DefaultConfig()
	ring.Topology = BackendRing
	ring.NumVCs = 4 // dateline VC classes need the split
	cfgs["ring"] = ring
	bj := DefaultConfig()
	bj.Topology = BackendBaseJump
	bj.FlitBytes = 64 // single-flit substrate wants line-sized flits
	cfgs["basejump"] = bj
	return cfgs
}

// TestSharedBackendMatchesSoloNetworks pins what backend sharing relies on:
// networks built by NewMesh on the one cached backend of their geometry,
// driven concurrently by a deterministic protocol, accumulate exactly the
// stats of networks built alone on uncached backends of their own. After
// the run the cached backend still deep-equals a fresh build, which is the
// immutability invariant that makes sharing safe.
func TestSharedBackendMatchesSoloNetworks(t *testing.T) {
	for name, cfg := range shareTestConfigs() {
		t.Run(name, func(t *testing.T) {
			withFreshBackendCache(t)
			const nets, cycles = 3, 400
			cached, err := BuildBackend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, nets)
			var wg sync.WaitGroup
			for i := 0; i < nets; i++ {
				c := cfg
				c.Seed = cfg.Seed + uint64(i)
				shared, err := NewMesh(c)
				if err != nil {
					t.Fatal(err)
				}
				if shared.Backend() != cached {
					t.Fatalf("network %d did not get the cached backend", i)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = driveProtocol(t, shared, cycles)
				}(i)
			}
			wg.Wait()
			for i := 0; i < nets; i++ {
				c := cfg
				c.Seed = cfg.Seed + uint64(i)
				own, err := buildBackend(c)
				if err != nil {
					t.Fatal(err)
				}
				solo := &Mesh{}
				if err := solo.init(c, own); err != nil {
					t.Fatal(err)
				}
				if want := driveProtocol(t, solo, cycles); got[i] != want {
					t.Errorf("network %d diverged from its solo network:\n got  %s\n want %s", i, got[i], want)
				}
			}
			fresh, err := buildBackend(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached, fresh) {
				t.Error("running networks on the cached backend changed it")
			}
		})
	}
}

// TestBackendCacheKey pins the cache key: configurations that differ only
// in fields BuildBackend does not read share one backend, and flipping any
// field it does read — the MC list's order included — gives another.
func TestBackendCacheKey(t *testing.T) {
	withFreshBackendCache(t)
	base := DefaultConfig()
	base.MCs = CheckerboardPlacement(6, 6, 8) // valid with and without half-routers
	build := func(cfg Config) Backend {
		t.Helper()
		b, err := BuildBackend(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := build(base)
	if build(base) != ref {
		t.Fatal("two builds of one configuration gave different backends")
	}
	for name, mutate := range map[string]func(*Config){
		"FlitBytes": func(c *Config) { c.FlitBytes = 32 },
		"NumVCs":    func(c *Config) { c.NumVCs = 4 },
		"BufDepth":  func(c *Config) { c.BufDepth = 2 },
		"Seed":      func(c *Config) { c.Seed = 99 },
		"Fault":     func(c *Config) { c.Fault = c.Fault.WithRate(0.01, 5) },
	} {
		cfg := base
		mutate(&cfg)
		if build(cfg) != ref {
			t.Errorf("%s is not part of the key but gave another backend", name)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"Topology":     func(c *Config) { c.Topology = BackendRing },
		"Width":        func(c *Config) { c.Width = 7 },
		"Height":       func(c *Config) { c.Height = 7 },
		"Checkerboard": func(c *Config) { c.Checkerboard = true },
		"Routing":      func(c *Config) { c.Routing = RoutingROMM },
		"MCs order":    func(c *Config) { c.MCs = append([]NodeID{c.MCs[1], c.MCs[0]}, c.MCs[2:]...) },
		"MCs count":    func(c *Config) { c.MCs = c.MCs[:7] },
	} {
		cfg := base
		mutate(&cfg)
		b := build(cfg)
		if b == ref {
			t.Errorf("flipping %s gave the same backend", name)
		}
		if b != build(cfg) {
			t.Errorf("flipping %s: a second build missed the cache", name)
		}
		if got := b.MCs(); !reflect.DeepEqual(got, cfg.MCs) {
			t.Errorf("flipping %s: backend MCs %v, config %v", name, got, cfg.MCs)
		}
	}
}

// TestBackendCacheConcurrent builds one geometry from several goroutines at
// once: every caller must get the same backend.
func TestBackendCacheConcurrent(t *testing.T) {
	withFreshBackendCache(t)
	const callers = 8
	got := make([]Backend, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := BuildBackend(checkerboardKernelConfig())
			if err != nil {
				t.Error(err)
			}
			got[i] = b
		}(i)
	}
	wg.Wait()
	for i, b := range got {
		if b == nil || b != got[0] {
			t.Fatalf("caller %d got backend %p, caller 0 got %p", i, b, got[0])
		}
	}
}

// TestBackendCacheCap builds more geometries than the cache holds: every
// backend is still the right one, the cache stops at its cap, and the
// geometries past it are built afresh on each call.
func TestBackendCacheCap(t *testing.T) {
	withFreshBackendCache(t)
	cfg := DefaultConfig()
	cfg.Topology, cfg.Height, cfg.MCs = BackendRing, 1, []NodeID{0}
	ringOf := func(n int) Config {
		c := cfg
		c.Width = n
		return c
	}
	const extra = 8
	for n := 4; n < 4+backendCacheCap+extra; n++ {
		b, err := BuildBackend(ringOf(n))
		if err != nil {
			t.Fatal(err)
		}
		if b.NumNodes() != n || len(b.ComputeNodes()) != n-1 {
			t.Fatalf("%d-node ring: backend has %d nodes, %d compute", n, b.NumNodes(), len(b.ComputeNodes()))
		}
	}
	backends.mu.Lock()
	got := len(backends.entries)
	backends.mu.Unlock()
	if got != backendCacheCap {
		t.Fatalf("cache holds %d geometries, want its cap %d", got, backendCacheCap)
	}
	first, last := ringOf(4), ringOf(4+backendCacheCap)
	if MustBuildBackend(first) != MustBuildBackend(first) {
		t.Error("a geometry inside the cap is not cached")
	}
	if MustBuildBackend(last) == MustBuildBackend(last) {
		t.Error("a geometry past the cap was cached")
	}
}
