package noc

import "fmt"

// Port is a direction port of a mesh router. Terminal (injection/ejection)
// ports are numbered after the four directions.
type Port int

// Direction ports.
const (
	North Port = iota
	East
	South
	West
	numDirs
)

// String names the port.
func (p Port) String() string {
	switch p {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("T%d", int(p-numDirs))
}

// opposite returns the port on the far end of a channel leaving via p.
func (p Port) opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	panic("noc: opposite of non-direction port")
}

// Coord is a mesh coordinate; (0,0) is the top-left tile, Y grows downward.
type Coord struct{ X, Y int }

// nodeRoles holds which nodes of a backend host memory controllers. It is
// written once per backend, validating the MC list against the node count,
// and read-only after, like the backend that embeds it.
type nodeRoles struct {
	mcs     map[NodeID]bool
	mcList  []NodeID
	compute []NodeID // the non-MC nodes in id order
}

// init records mcs as the MC nodes of an n-node backend named by shape (for
// error messages), rejecting out-of-range and duplicate ids.
func (r *nodeRoles) init(n int, shape string, mcs []NodeID) error {
	r.mcs = make(map[NodeID]bool, len(mcs))
	for _, mc := range mcs {
		if mc < 0 || int(mc) >= n {
			return fmt.Errorf("noc: MC node %d out of range for %s", mc, shape)
		}
		if r.mcs[mc] {
			return fmt.Errorf("noc: duplicate MC node %d", mc)
		}
		r.mcs[mc] = true
		r.mcList = append(r.mcList, mc)
	}
	r.compute = make([]NodeID, 0, n-len(mcs))
	for id := NodeID(0); int(id) < n; id++ {
		if !r.mcs[id] {
			r.compute = append(r.compute, id)
		}
	}
	return nil
}

// IsMC reports whether node n hosts a memory controller.
func (r *nodeRoles) IsMC(n NodeID) bool { return r.mcs[n] }

// MCs returns the MC nodes in declaration order. The slice is shared and
// clipped so that an append copies: callers must not write it.
func (r *nodeRoles) MCs() []NodeID { return r.mcList[:len(r.mcList):len(r.mcList)] }

// ComputeNodes returns all non-MC nodes in id order. The slice is shared:
// callers must not write it.
func (r *nodeRoles) ComputeNodes() []NodeID { return r.compute[:len(r.compute):len(r.compute)] }

// Topology is the 2D mesh backend: geometry, node roles and routing. It
// serves both the paper's mesh (full or checkerboard routers, DOR, CR or
// ROMM) and the BaseJump single-flit DOR mesh, which differs only in what
// BuildBackend accepts and in the single-flit rule of its Config.Topology.
// It is immutable once built, because the backend cache shares one Topology
// between every network of a geometry (see BuildBackend): no field is
// exported, and the slices it hands out are clipped to their length so that
// an append copies.
type Topology struct {
	nodeRoles
	width, height int
	checkerboard  bool
	algo          RoutingAlgo
	// routes holds the precomputed per-hop route tables, one per routing
	// phase (0 = XY, 1 = YX), indexed cur×numNodes+target. PlanRoute
	// decides the phase and intermediate once at injection; every
	// subsequent hop is a single table load. Entries with cur == target are
	// never consulted (routers eject, or retarget, first) and hold
	// routeUnreachable.
	routes [2][]uint8
}

// routeUnreachable marks route-table entries that per-hop routing never
// consults (cur == target).
const routeUnreachable = uint8(numDirs)

// NewTopology builds a W×H mesh routed by DOR. When checkerboard is true,
// odd-parity tiles ((x+y) odd) hold half-routers; mcs lists the tiles
// hosting memory controllers, which must then all sit at half-router tiles
// (§IV-A). BuildBackend sets the routing algorithm of its configuration.
func NewTopology(width, height int, checkerboard bool, mcs []NodeID) (*Topology, error) {
	if width < 2 || height < 2 {
		return nil, fmt.Errorf("noc: mesh must be at least 2x2, got %dx%d", width, height)
	}
	t := &Topology{width: width, height: height, checkerboard: checkerboard}
	if err := t.nodeRoles.init(width*height, fmt.Sprintf("%dx%d mesh", width, height), mcs); err != nil {
		return nil, err
	}
	for _, mc := range t.mcList {
		if checkerboard && !t.IsHalf(mc) {
			return nil, fmt.Errorf("noc: MC node %d (%v) must be at a half-router tile in a checkerboard mesh",
				mc, t.Coord(mc))
		}
	}
	t.buildRoutes()
	return t, nil
}

// buildRoutes precomputes the per-phase next-hop tables. Both phases are
// pure functions of (cur, target) — XY moves horizontally until the column
// matches, YX vertically until the row matches — so the per-flit case
// analysis collapses to one array load at simulation time.
func (t *Topology) buildRoutes() {
	n := t.NumNodes()
	for phase := range t.routes {
		tab := make([]uint8, n*n)
		for cur := 0; cur < n; cur++ {
			cc := t.Coord(NodeID(cur))
			for target := 0; target < n; target++ {
				p := routeUnreachable
				if cur != target {
					ct := t.Coord(NodeID(target))
					if phase == 1 { // YX: vertical first
						if cc.Y != ct.Y {
							p = uint8(vertical(cc, ct))
						} else {
							p = uint8(horizontal(cc, ct))
						}
					} else { // XY: horizontal first
						if cc.X != ct.X {
							p = uint8(horizontal(cc, ct))
						} else {
							p = uint8(vertical(cc, ct))
						}
					}
				}
				tab[cur*n+target] = p
			}
		}
		t.routes[phase] = tab
	}
}

// MustNewTopology is NewTopology but panics on error.
func MustNewTopology(width, height int, checkerboard bool, mcs []NodeID) *Topology {
	t, err := NewTopology(width, height, checkerboard, mcs)
	if err != nil {
		panic(err)
	}
	return t
}

// NumNodes returns the tile count.
func (t *Topology) NumNodes() int { return t.width * t.height }

// Node returns the id of the tile at (x, y).
func (t *Topology) Node(x, y int) NodeID { return NodeID(y*t.width + x) }

// Coord returns the coordinate of node n.
func (t *Topology) Coord(n NodeID) Coord {
	return Coord{X: int(n) % t.width, Y: int(n) / t.width}
}

// IsHalf reports whether node n holds a half-router.
func (t *Topology) IsHalf(n NodeID) bool {
	if !t.checkerboard {
		return false
	}
	c := t.Coord(n)
	return (c.X+c.Y)%2 == 1
}

// Neighbor returns the node reached from n via direction p, or -1 at the
// mesh edge.
func (t *Topology) Neighbor(n NodeID, p Port) NodeID {
	c := t.Coord(n)
	switch p {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		panic("noc: Neighbor of non-direction port")
	}
	if c.X < 0 || c.X >= t.width || c.Y < 0 || c.Y >= t.height {
		return -1
	}
	return t.Node(c.X, c.Y)
}

// HopCount returns the minimal hop distance between two nodes.
func (t *Topology) HopCount(a, b NodeID) int {
	ca, cb := t.Coord(a), t.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TopBottomPlacement returns the baseline MC placement (Fig 3): MCs spread
// along the top and bottom rows, like Intel's 80-core and Tilera TILE64.
// For the paper's 6x6 mesh with 8 MCs this is columns 1-4 of rows 0 and 5.
func TopBottomPlacement(width, height, numMCs int) []NodeID {
	perRow := numMCs / 2
	mcs := make([]NodeID, 0, numMCs)
	// Center the MCs within each row.
	start := (width - perRow) / 2
	for i := 0; i < perRow; i++ {
		mcs = append(mcs, NodeID(start+i)) // top row, y = 0
	}
	for i := 0; i < numMCs-perRow; i++ {
		mcs = append(mcs, NodeID((height-1)*width+start+i)) // bottom row
	}
	return mcs
}

// CheckerboardPlacement returns a staggered MC placement on half-router
// (odd-parity) tiles, per §IV-A and Fig 12. For the paper's 6x6 mesh with
// 8 MCs it spreads controllers across rows and columns to avoid the
// hot-spotting of the top-bottom layout. Placements for other sizes pick
// evenly spaced odd-parity tiles.
func CheckerboardPlacement(width, height, numMCs int) []NodeID {
	if width == 6 && height == 6 && numMCs == 8 {
		// Interior diamond: every MC keeps all four mesh directions, so
		// reply traffic fans out instead of concentrating on edge links.
		coords := []Coord{
			{2, 1}, {4, 1}, {1, 2}, {3, 2}, {2, 3}, {4, 3}, {1, 4}, {3, 4},
		}
		mcs := make([]NodeID, len(coords))
		for i, c := range coords {
			mcs[i] = NodeID(c.Y*width + c.X)
		}
		return mcs
	}
	// Generic fallback: evenly sample odd-parity tiles.
	var odd []NodeID
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			if (x+y)%2 == 1 {
				odd = append(odd, NodeID(y*width+x))
			}
		}
	}
	if numMCs > len(odd) {
		numMCs = len(odd)
	}
	mcs := make([]NodeID, 0, numMCs)
	for i := 0; i < numMCs; i++ {
		mcs = append(mcs, odd[i*len(odd)/numMCs])
	}
	return mcs
}
