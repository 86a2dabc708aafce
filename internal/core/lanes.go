package core

import (
	"context"
	"weak"
)

// Slot is a worker slot's memory: the Systems its last run finished, one
// per lane of the widest batch it ran. Each run on the slot builds its
// Systems into them (System.build), so a slot that runs one configuration
// after another makes almost no construction garbage.
//
// Between runs the slot holds its Systems only through weak pointers. A
// run that starts before the next collection builds into them; a
// collection frees them, and the run after it builds fresh. So an idle
// slot never adds to the live heap the collector paces itself by, and a
// run holds its Systems strongly only from build to retire.
//
// Nothing a slot returns aliases its memory: a Result is a value, and a
// hang's *fault.HangError and its Diagnostic are built fresh for the run
// they end. A run that panics leaves the slot empty. The zero value is an
// empty slot; a Slot is not safe for concurrent use.
type Slot struct {
	spares []weak.Pointer[System]
}

// Run builds cfg into the slot and runs it to completion; see the
// package-level Run, which is this method on an empty slot.
func (sl *Slot) Run(ctx context.Context, cfg Config) (Result, error) {
	lanes, errs := sl.runLanes(ctx, cfg, []uint64{cfg.Seed})
	if lanes[0] == nil {
		return Result{}, errs[0]
	}
	return lanes[0].res, lanes[0].runErr
}

// RunLanes builds the lane batch into the slot and runs it; see the
// package-level RunLanes, which is this method on an empty slot.
func (sl *Slot) RunLanes(ctx context.Context, cfg Config, seeds []uint64) ([]Result, []error) {
	results := make([]Result, len(seeds))
	lanes, errs := sl.runLanes(ctx, cfg, seeds)
	for i, s := range lanes {
		if s != nil {
			results[i], errs[i] = s.res, s.runErr
		}
	}
	return results, errs
}

// runLanes builds and drives the lane batch round-robin, returning the
// retired systems (nil where construction failed, with the error in the
// second slice). The slot keeps weak pointers to them. Split from RunLanes
// so tests can digest per-lane network stats.
func (sl *Slot) runLanes(ctx context.Context, cfg Config, seeds []uint64) ([]*System, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spares := sl.spares
	sl.spares = nil // a panic below leaves the slot empty
	lanes := make([]*System, len(seeds))
	for i := range lanes {
		if i < len(spares) {
			lanes[i] = spares[i].Value()
		}
		if lanes[i] == nil {
			lanes[i] = &System{}
		}
	}
	errs := buildLanes(lanes, cfg, seeds)
	stepLanes(ctx, lanes)
	for len(spares) < len(lanes) {
		spares = append(spares, weak.Pointer[System]{})
	}
	for i, s := range lanes {
		spares[i] = weak.Make(s) // the zero Pointer for a failed build
	}
	sl.spares = spares
	return lanes, errs
}

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
// Result still populated). RunLanes is Slot.RunLanes on an empty slot.
func RunLanes(ctx context.Context, cfg Config, seeds []uint64) ([]Result, []error) {
	var sl Slot
	return sl.RunLanes(ctx, cfg, seeds)
}

// stepLanes advances every live lane by one step per round until all have
// retired; nil lanes (failed builds) are skipped. A batch of one runs the
// solo loop, System.Run.
func stepLanes(ctx context.Context, lanes []*System) {
	if len(lanes) == 1 && lanes[0] != nil {
		lanes[0].Run(ctx)
		return
	}
	for live := true; live; {
		live = false
		for _, s := range lanes {
			if s != nil && !s.finished && s.step(ctx) {
				live = true
			}
		}
	}
}

// buildLanes builds lane i of the batch, cfg with seeds[i], into
// lanes[i], which may be empty or hold a finished run. A lane that fails
// to build is set to nil, its error in the returned slice. The lanes share
// their topology backend through noc.BuildBackend's cache, exactly as
// separate NewSystem calls do.
func buildLanes(lanes []*System, cfg Config, seeds []uint64) []error {
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		if errs[i] = lanes[i].build(c); errs[i] != nil {
			lanes[i] = nil
		}
	}
	return errs
}
