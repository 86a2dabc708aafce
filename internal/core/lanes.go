package core

import "context"

// RunLanes executes len(seeds) replicas of cfg — identical except for
// Config.Seed — through one interleaved cycle loop. The replicas ("lanes")
// share the immutable topology backend (geometry, route tables) through
// noc.BuildBackend's process-wide cache, as any systems of one geometry do,
// while every lane keeps its own mutable state: VC buffers, queues, stats,
// RNG streams and a private clock scheduler. Each round advances every live
// lane by one call of the step function System.Run loops over, so a lane
// executes exactly what Run executes for its seed,
// interleaved in wall-clock with its siblings; lanes retire individually as
// they finish and a retired lane costs nothing. One seed is simply a batch
// of one.
//
// Results are bit-identical to running each seed alone, for every lane
// count, which the golden digest matrices pin at lanes 1/2/4.
//
// The returned slices are indexed like seeds. A lane's error mirrors what
// Run would have returned for that seed (nil, or a *fault.HangError with the
// Result still populated).
func RunLanes(ctx context.Context, cfg Config, seeds []uint64) ([]Result, []error) {
	results := make([]Result, len(seeds))
	lanes, errs := runLanes(ctx, cfg, seeds)
	for i, s := range lanes {
		if s != nil {
			results[i], errs[i] = s.res, s.runErr
		}
	}
	return results, errs
}

// runLanes builds and drives the lane batch round-robin, returning the
// retired systems (nil where construction failed, with the error in the
// second slice). Split from RunLanes so tests can digest per-lane network
// stats.
func runLanes(ctx context.Context, cfg Config, seeds []uint64) ([]*System, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lanes, errs := newLanes(cfg, seeds)
	stepLanes(ctx, lanes)
	return lanes, errs
}

// stepLanes advances every live lane by one step per round until all have
// retired; nil lanes (failed builds) are skipped.
func stepLanes(ctx context.Context, lanes []*System) {
	for live := true; live; {
		live = false
		for _, s := range lanes {
			if s != nil && !s.finished && s.step(ctx) {
				live = true
			}
		}
	}
}

// newLanes builds one System per seed. The lanes share their topology
// backend through noc.BuildBackend's cache, exactly as separate NewSystem
// calls do.
func newLanes(cfg Config, seeds []uint64) ([]*System, []error) {
	errs := make([]error, len(seeds))
	lanes := make([]*System, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		lanes[i], errs[i] = NewSystem(c)
	}
	return lanes, errs
}
