package noc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/xrand"
)

// BackendKind selects the interconnect substrate a Config builds. The zero
// value is the 2D mesh, so existing configurations are unchanged.
type BackendKind int

// Topology backends.
const (
	// BackendMesh is the paper's 2D mesh (full or checkerboard routers,
	// DOR/CR/ROMM routing).
	BackendMesh BackendKind = iota
	// BackendRing is a Wu-style unified bidirectional ring: every node has
	// exactly two neighbours, shortest-path per-hop routing, and a dateline
	// VC discipline for deadlock freedom. Minimal buffering and 2-port
	// crossbars make it the area floor of the design space.
	BackendRing
	// BackendBaseJump is a BaseJump-style (Xie & Taylor) single-flit DOR
	// mesh: every packet is exactly one flit wide, routers run plain XY
	// routing on full-width channels, and the VC budget collapses to one
	// per traffic class.
	BackendBaseJump
)

// String names the backend.
func (k BackendKind) String() string {
	switch k {
	case BackendMesh:
		return "mesh"
	case BackendRing:
		return "ring"
	case BackendBaseJump:
		return "basejump"
	}
	return fmt.Sprintf("backend(%d)", int(k))
}

// ParseBackendKind resolves a -topology flag value.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "mesh":
		return BackendMesh, nil
	case "ring":
		return BackendRing, nil
	case "basejump":
		return BackendBaseJump, nil
	}
	return 0, fmt.Errorf("noc: unknown topology %q (want mesh, ring or basejump)", s)
}

// singleFlit reports whether the kind carries whole packets in one flit:
// the rule every network of the kind enforces at injection, and that
// Double's slicing guard reads before a network exists.
func (k BackendKind) singleFlit() bool { return k == BackendBaseJump }

// phases is how many VC phase classes cfg's routing needs (1 or 2); the VC
// plan splits the VC budget across them. Two-phase mesh routing (CR, ROMM)
// needs disjoint XY and YX classes, and the ring needs one class on each
// side of its dateline; mesh DOR needs one.
func (cfg Config) phases() int {
	if cfg.Topology == BackendRing || cfg.Routing != RoutingDOR {
		return 2
	}
	return 1
}

// Backend abstracts the interconnect substrate behind the cycle kernel:
// node/channel enumeration, node roles, per-packet route planning and
// per-hop route computation. The kernel (routers, VCs, credits, NIs, fault
// injection) is backend-agnostic; a backend contributes only geometry and
// routing. What follows from the backend kind alone — the single-flit rule,
// the VC phase count — is decided from Config, and the link count is
// LinkCount's walk over Neighbor.
//
// Contract notes:
//   - Channels: the kernel wires one flit channel for every (node,
//     direction) with Neighbor >= 0, and Neighbor must be symmetric under
//     Port.opposite (Neighbor(Neighbor(n,d), d.opposite()) == n), so each
//     direction input has exactly one upstream router: the one that derives
//     its credits from that buffer, and to which lost credits return.
//   - NextHop may mutate the packet's phase state (checkerboard
//     intermediates, ring datelines); the router reads the allowed-VC set
//     after NextHop, so a phase flip applies to the outgoing link.
type Backend interface {
	// NumNodes returns the node count.
	NumNodes() int
	// Neighbor returns the node reached from n via direction d, or -1 when
	// the backend wires no channel there.
	Neighbor(n NodeID, d Port) NodeID
	// HopCount returns the minimal hop distance between two nodes; planned
	// routes never exceed it (two-phase routes are bounded by the sum over
	// their legs).
	HopCount(a, b NodeID) int
	// IsHalf reports whether node n holds a turn-restricted half-router.
	IsHalf(n NodeID) bool
	// IsMC reports whether node n hosts a memory controller.
	IsMC(n NodeID) bool
	// MCs returns the MC nodes in declaration order. Backends are shared
	// (see BuildBackend), so callers must not write the slice.
	MCs() []NodeID
	// ComputeNodes returns all non-MC nodes in id order; callers must not
	// write the slice.
	ComputeNodes() []NodeID
	// PlanRoute fills in a packet's routing state (YXPhase, Intermediate) at
	// injection time; scratch is an optional candidate buffer so hot-path
	// planning never allocates.
	PlanRoute(src, dst NodeID, rng *xrand.Rand, scratch []NodeID) (yxPhase bool, intermediate NodeID, err error)
	// NextHop performs per-hop route computation at router cur for packet p,
	// returning a direction port or eject=true.
	NextHop(cur NodeID, p *Packet) (out Port, eject bool)
}

// LinkCount returns the number of unidirectional channels b wires: one for
// every (node, direction) with a neighbour. It is the kernel's own channel
// enumeration, so the area model's link count is the wiring simulated.
func LinkCount(b Backend) int {
	links := 0
	for n := 0; n < b.NumNodes(); n++ {
		for d := Port(0); d < numDirs; d++ {
			if b.Neighbor(NodeID(n), d) >= 0 {
				links++
			}
		}
	}
	return links
}

// BuildBackend validates cfg's geometry/routing combination and returns its
// topology backend. Backends are immutable after construction — PlanRoute
// threads the caller's rng and scratch through, and every slice a backend
// hands out is read-only — so one is shared by every network of its
// geometry: the slices of a Double, the seed replicas of a lane batch and
// the runs of a sweep. The first successful build of each geometry is kept
// in a process-wide cache keyed by exactly the fields read here (Topology,
// Width, Height, Checkerboard, Routing and the MCs list in order); once the
// cache holds backendCacheCap geometries, further ones are built uncached.
// Errors are never cached.
func BuildBackend(cfg Config) (Backend, error) {
	var arr [64]byte
	key := appendBackendKey(arr[:0], cfg)
	if b := backends.lookup(key); b != nil {
		return b, nil
	}
	b, err := buildBackend(cfg)
	if err != nil {
		return nil, err
	}
	return backends.insert(key, b), nil
}

// backendCacheCap bounds the backend cache. The paper's sweeps use a handful
// of geometries; the cap only stops a stream of random ones (fuzzing) from
// growing the cache without limit.
const backendCacheCap = 64

// appendBackendKey appends the cache key of cfg to dst: the fields
// BuildBackend reads, as varints in a fixed order with the MC ids last,
// so two configs share a key exactly when those fields are equal.
func appendBackendKey(dst []byte, cfg Config) []byte {
	cb := 0
	if cfg.Checkerboard {
		cb = 1
	}
	for _, v := range [...]int{int(cfg.Topology), cfg.Width, cfg.Height, cb, int(cfg.Routing)} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	for _, mc := range cfg.MCs {
		dst = binary.AppendVarint(dst, int64(mc))
	}
	return dst
}

// backendCache is the process-wide backend memo; runner jobs build
// networks concurrently, so it is guarded by a mutex.
type backendCache struct {
	mu      sync.Mutex
	entries map[string]Backend
}

var backends = backendCache{entries: make(map[string]Backend)}

// lookup returns the cached backend for key, or nil.
func (c *backendCache) lookup(key []byte) Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[string(key)]
}

// insert caches b under key unless the cache is full, and returns the
// backend every caller of this geometry should use: one another goroutine
// cached first wins, so concurrent builders agree.
func (c *backendCache) insert(key []byte, b Backend) Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.entries[string(key)]; ok {
		return cached
	}
	if len(c.entries) < backendCacheCap {
		c.entries[string(key)] = b
	}
	return b
}

// buildBackend validates cfg and builds its backend, uncached. The mesh and
// BaseJump share the Topology backend; BaseJump only narrows what it
// accepts to full routers and DOR.
func buildBackend(cfg Config) (Backend, error) {
	switch cfg.Topology {
	case BackendMesh:
	case BackendRing:
		return newRingBackend(cfg)
	case BackendBaseJump:
		if cfg.Checkerboard {
			return nil, fmt.Errorf("noc: basejump topology uses full routers only (Checkerboard must be off)")
		}
		if cfg.Routing != RoutingDOR {
			return nil, fmt.Errorf("noc: basejump topology routes XY DOR only, got %v", cfg.Routing)
		}
	default:
		return nil, fmt.Errorf("noc: unknown topology backend %d", int(cfg.Topology))
	}
	if cfg.Routing == RoutingCheckerboard && !cfg.Checkerboard {
		return nil, fmt.Errorf("noc: checkerboard routing requires a checkerboard mesh")
	}
	if cfg.Routing == RoutingROMM && cfg.Checkerboard {
		return nil, fmt.Errorf("noc: ROMM turns anywhere and needs full routers")
	}
	topo, err := NewTopology(cfg.Width, cfg.Height, cfg.Checkerboard, cfg.MCs)
	if err != nil {
		return nil, err
	}
	topo.algo = cfg.Routing
	return topo, nil
}

// MustBuildBackend is BuildBackend but panics on error (area model, tools).
func MustBuildBackend(cfg Config) Backend {
	b, err := BuildBackend(cfg)
	if err != nil {
		panic(err)
	}
	return b
}
