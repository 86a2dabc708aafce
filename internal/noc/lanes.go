package noc

import "fmt"

// LaneSet batches L seed-replica networks of ONE configuration behind a
// single cycle loop. All lanes share one immutable Backend — geometry and
// route tables are built once — while every lane keeps its
// own mutable network state (buffers, allocators, rng, stats), the
// structure-of-arrays layout the lane-batched simulation kernel steps in
// lockstep. Lanes advance together through Tick/SkipAhead and retire
// individually: a drained lane leaves the live set and costs nothing on
// subsequent cycles or horizon scans.
type LaneSet struct {
	backend Backend
	lanes   []*Mesh
	live    []bool
	liveN   int
}

// NewLaneSet builds n lane replicas of cfg over one shared backend. Lane i
// seeds its rng with cfg.Seed+i so replicas draw independent streams (see
// xrand's stream-independence guarantee) while staying individually
// reproducible: lane i is bit-identical to a solo network built from cfg
// with Seed+i.
func NewLaneSet(cfg Config, n int) (*LaneSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("noc: lane count must be positive, got %d", n)
	}
	backend, err := BuildBackend(cfg)
	if err != nil {
		return nil, err
	}
	ls := &LaneSet{
		backend: backend,
		lanes:   make([]*Mesh, n),
		live:    make([]bool, n),
		liveN:   n,
	}
	for i := range ls.lanes {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		m, err := NewMeshWithBackend(c, backend)
		if err != nil {
			return nil, fmt.Errorf("noc: lane %d: %w", i, err)
		}
		ls.lanes[i] = m
		ls.live[i] = true
	}
	return ls, nil
}

// MustNewLaneSet is NewLaneSet for static configurations.
func MustNewLaneSet(cfg Config, n int) *LaneSet {
	ls, err := NewLaneSet(cfg, n)
	if err != nil {
		panic(err)
	}
	return ls
}

// Backend returns the shared immutable substrate.
func (ls *LaneSet) Backend() Backend { return ls.backend }

// Len returns the number of lanes, live or retired.
func (ls *LaneSet) Len() int { return len(ls.lanes) }

// Lane returns lane i's network. Valid for retired lanes too — stats stay
// readable after retirement.
func (ls *LaneSet) Lane(i int) *Mesh { return ls.lanes[i] }

// Live reports whether lane i still participates in Tick/SkipAhead.
func (ls *LaneSet) Live(i int) bool { return ls.live[i] }

// LiveCount returns how many lanes are still advancing.
func (ls *LaneSet) LiveCount() int { return ls.liveN }

// Retire removes lane i from the live set; subsequent Tick, SkipAhead and
// NextWorkCycle calls skip it entirely. Idempotent.
func (ls *LaneSet) Retire(i int) {
	if ls.live[i] {
		ls.live[i] = false
		ls.liveN--
	}
}

// Tick advances every live lane by one interconnect cycle, lane-major.
func (ls *LaneSet) Tick() {
	for i, m := range ls.lanes {
		if ls.live[i] {
			m.Tick()
		}
	}
}

// SkipAhead credits k idle cycles to every live lane. Callers must respect
// each lane's NextWorkCycle bound — the min-reduce below yields the largest
// k that is simultaneously safe for the whole set.
func (ls *LaneSet) SkipAhead(k uint64) {
	for i, m := range ls.lanes {
		if ls.live[i] {
			m.SkipAhead(k)
		}
	}
}

// NextWorkCycle min-reduces the idle-skip horizon across live lanes: the
// earliest cycle at which ANY live lane can make progress. Lanes advance in
// lockstep, so their cycle frames coincide and the min is well-defined.
// With no live lanes it returns NeverCycle.
func (ls *LaneSet) NextWorkCycle() uint64 {
	h := uint64(NeverCycle)
	for i, m := range ls.lanes {
		if !ls.live[i] {
			continue
		}
		if w := m.NextWorkCycle(); w < h {
			h = w
		}
	}
	return h
}

// Quiet reports whether every live lane is drained. Vacuously true once all
// lanes have retired.
func (ls *LaneSet) Quiet() bool {
	for i, m := range ls.lanes {
		if ls.live[i] && !m.Quiet() {
			return false
		}
	}
	return true
}
