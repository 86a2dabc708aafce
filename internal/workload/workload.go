// Package workload models the memory behaviour of the paper's 31 CUDA
// benchmarks (Table I) as parameterized synthetic kernels.
//
// The original evaluation ran compiled CUDA binaries on GPGPU-Sim; those
// binaries and the simulator's functional front end are out of scope here,
// and the NoC study only depends on the *timing-visible* behaviour of a
// kernel: how many warps run, how often they touch global memory, how well
// accesses coalesce, how much spatial/temporal locality the streams have,
// and the read/write mix. Each Profile captures exactly those parameters;
// the catalog in table1.go is calibrated so every benchmark falls in the
// LL/LH/HH class the paper reports (Fig 7) and the aggregate behaviours
// (perfect-network speedup, MC stall fractions, injection-rate imbalance)
// match the paper's shape.
package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/reuse"
	"repro/internal/xrand"
)

// Profile describes one benchmark's per-core kernel behaviour.
type Profile struct {
	Name  string
	Abbr  string
	Class string // paper-reported class: "LL", "LH" or "HH"

	Warps         int // resident warps per core (occupancy), <= 32
	InstrsPerWarp int // warp instructions each warp executes

	MemFraction      float64 // fraction of warp instructions touching global memory
	WriteFraction    float64 // fraction of memory instructions that are stores
	LinesPerMemInstr int     // coalesced cache-line requests per memory instruction (1..32)
	ActiveThreads    int     // average active scalar threads per warp (branch divergence), <= 32

	WorkingSetKB int     // global working set shared by all cores
	Sequential   float64 // probability a memory instruction continues its warp's stream
	Reuse        float64 // probability a memory instruction re-touches recent lines
}

// Validate checks profile invariants.
func (p Profile) Validate() error {
	switch {
	case p.Warps <= 0 || p.Warps > 32:
		return fmt.Errorf("workload %s: Warps must be in 1..32, got %d", p.Abbr, p.Warps)
	case p.InstrsPerWarp <= 0:
		return fmt.Errorf("workload %s: InstrsPerWarp must be positive", p.Abbr)
	case p.MemFraction < 0 || p.MemFraction > 1:
		return fmt.Errorf("workload %s: MemFraction out of [0,1]", p.Abbr)
	case p.WriteFraction < 0 || p.WriteFraction > 1:
		return fmt.Errorf("workload %s: WriteFraction out of [0,1]", p.Abbr)
	case p.LinesPerMemInstr < 1 || p.LinesPerMemInstr > 32:
		return fmt.Errorf("workload %s: LinesPerMemInstr must be in 1..32", p.Abbr)
	case p.ActiveThreads < 1 || p.ActiveThreads > 32:
		return fmt.Errorf("workload %s: ActiveThreads must be in 1..32", p.Abbr)
	case p.WorkingSetKB <= 0:
		return fmt.Errorf("workload %s: WorkingSetKB must be positive", p.Abbr)
	case p.Sequential < 0 || p.Reuse < 0 || p.Sequential+p.Reuse > 1:
		return fmt.Errorf("workload %s: Sequential/Reuse must be non-negative with sum <= 1", p.Abbr)
	}
	return nil
}

// Instr is one warp instruction as seen by the timing model.
type Instr struct {
	Mem           bool
	Write         bool
	Lines         []addr.Address // cache-line base addresses (Mem only)
	ActiveThreads int            // scalar instructions this warp instruction retires
}

const lineBytes = 64

// historyLen is the per-warp window of recently touched lines used for
// temporal-reuse traffic.
const historyLen = 16

type warpGen struct {
	issued  int
	cursor  uint64 // next sequential line offset within the warp's partition
	history [historyLen]uint64
	histN   int
	histPos int
}

// Generator produces the instruction stream of one core running a profile.
// Streams are deterministic given (profile, coreID, numCores, seed).
//
// All cores share one address space, the way CTAs of one CUDA kernel share
// its arrays: streaming cores interleave chunks at fine granularity, so
// concurrently-progressing cores touch adjacent lines. That cross-core
// spatial locality is what lets the FR-FCFS memory controllers find DRAM
// row hits on coalesced kernels.
type Generator struct {
	prof     Profile
	rng      xrand.Rand
	warps    []warpGen
	live     int // warps that have not yet retired their last instruction
	coreID   uint64
	numCores uint64
	wsLines  uint64 // working-set size in lines
	scratch  []addr.Address
}

// NewGenerator builds the stream generator for one of numCores cores.
func NewGenerator(p Profile, coreID, numCores int, seed uint64) (*Generator, error) {
	g := &Generator{}
	if err := g.Init(p, coreID, numCores, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Init builds g in place, as NewGenerator does, re-seeding its random
// stream and reusing (and clearing) its previous build's arrays where
// their capacity fits.
func (g *Generator) Init(p Profile, coreID, numCores int, seed uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if numCores <= 0 || coreID < 0 || coreID >= numCores {
		return fmt.Errorf("workload: core %d of %d out of range", coreID, numCores)
	}
	*g = Generator{
		prof:     p,
		warps:    reuse.Slice(g.warps, p.Warps),
		live:     p.Warps,
		coreID:   uint64(coreID),
		numCores: uint64(numCores),
		wsLines:  uint64(p.WorkingSetKB) * 1024 / lineBytes,
		scratch:  reuse.Keep(g.scratch, 32)[:0],
	}
	g.rng.Seed(seed ^ (uint64(coreID)+1)*0x9e3779b97f4a7c15)
	return nil
}

// MustNewGenerator is NewGenerator but panics on error.
func MustNewGenerator(p Profile, coreID, numCores int, seed uint64) *Generator {
	g, err := NewGenerator(p, coreID, numCores, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// Done reports whether warp w has retired all of its instructions.
func (g *Generator) Done(w int) bool { return g.warps[w].issued >= g.prof.InstrsPerWarp }

// AllDone reports whether every warp has finished.
func (g *Generator) AllDone() bool { return g.live == 0 }

// Next produces the next instruction of warp w. ok is false when the warp
// has finished. The returned Lines slice is reused by the next call.
func (g *Generator) Next(w int) (ins Instr, ok bool) {
	if g.Done(w) {
		return Instr{}, false
	}
	wg := &g.warps[w]
	wg.issued++
	if wg.issued == g.prof.InstrsPerWarp {
		g.live--
	}
	ins.ActiveThreads = g.prof.ActiveThreads
	if !g.rng.Bool(g.prof.MemFraction) {
		return ins, true
	}
	ins.Mem = true
	ins.Write = g.rng.Bool(g.prof.WriteFraction)
	ins.Lines = g.genLines(w, wg)
	return ins, true
}

// genLines produces the coalesced line addresses of one memory instruction.
func (g *Generator) genLines(w int, wg *warpGen) []addr.Address {
	k := g.prof.LinesPerMemInstr
	lines := g.scratch[:0]
	mode := g.rng.Float64()
	switch {
	case mode < g.prof.Reuse && wg.histN > 0:
		// Temporal reuse: re-touch recently used lines.
		for i := 0; i < k; i++ {
			lines = append(lines, g.lineAddr(wg.history[g.rng.Intn(wg.histN)]))
		}
	case mode < g.prof.Reuse+g.prof.Sequential:
		// Streaming: every (core, warp) pair owns one slot of a globally
		// interleaved stream, the layout a coalesced BSP kernel produces.
		// Cores and warps progressing in lockstep touch adjacent chunks
		// concurrently, giving the memory controllers DRAM row locality.
		nw := uint64(len(g.warps))
		slot := (wg.cursor*g.numCores+g.coreID)*nw + uint64(w)
		base := slot * uint64(k)
		for i := 0; i < k; i++ {
			lines = append(lines, g.lineAddr(base+uint64(i)))
		}
		wg.cursor++
	default:
		// Scatter: uniform over the core's working set.
		for i := 0; i < k; i++ {
			lines = append(lines, g.lineAddr(uint64(g.rng.Intn(int(g.wsLines)))))
		}
	}
	for _, ln := range lines {
		g.remember(wg, uint64(ln)/lineBytes)
	}
	g.scratch = lines
	return lines
}

func (g *Generator) lineAddr(lineOff uint64) addr.Address {
	return addr.Address((lineOff % g.wsLines) * lineBytes)
}

func (g *Generator) remember(wg *warpGen, lineOff uint64) {
	wg.history[wg.histPos] = lineOff
	wg.histPos = (wg.histPos + 1) % historyLen
	if wg.histN < historyLen {
		wg.histN++
	}
}
