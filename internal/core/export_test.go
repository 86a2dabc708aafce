package core

import (
	"context"

	"repro/internal/noc"
)

// WrapNetwork runs s on wrap(its network), the seam for test mutants that
// no Config can express. Call it before Run.
func (s *System) WrapNetwork(wrap func(noc.Network) noc.Network) { s.net = wrap(s.net) }

// newLanes builds one new System per seed, not yet stepped.
func newLanes(cfg Config, seeds []uint64) ([]*System, []error) {
	lanes := make([]*System, len(seeds))
	for i := range lanes {
		lanes[i] = &System{}
	}
	return lanes, buildLanes(lanes, cfg, seeds)
}

// runLanes runs the lane batch on an empty slot and returns its systems.
func runLanes(ctx context.Context, cfg Config, seeds []uint64) ([]*System, []error) {
	var sl Slot
	return sl.runLanes(ctx, cfg, seeds)
}
