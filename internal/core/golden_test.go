package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/noc"
)

// The golden digests below pin the bit-exact behaviour of seeded closed-loop
// runs across the cycle-kernel refactor: any change to allocation order,
// arbitration, queueing or traversal that alters a single flit movement shows
// up as a digest mismatch. They were recorded before the hot path moved onto
// flat allocator state, ring buffers and active-component lists, and every
// stage of that refactor was required to keep them bit-identical (the same
// bar PR 1 set for rate-0 fault injection).
//
// To re-record after an INTENTIONAL behaviour change (never to paper over an
// unexplained mismatch), run:
//
//	GOLDEN_RECORD=1 go test -run TestGoldenDigests -v ./internal/core/
//
// and paste the printed table over goldenDigests.

// goldenCase is one seeded configuration point in the determinism matrix.
type goldenCase struct {
	id    string
	build func() Config
}

// goldenScale keeps each run to a fraction of a second while still driving
// thousands of interconnect cycles through every router feature on the path.
const goldenScale = 0.04

func goldenMatrix() []goldenCase {
	hh := quickProfile("HH") // memory-heavy: real contention in the mesh
	ll := quickProfile("LL")
	return []goldenCase{
		{"baseline-dor", func() Config { return Baseline(hh).ScaleWork(goldenScale) }},
		{"checkerboard-cr", func() Config { return Baseline(hh).WithCheckerboardRouting().ScaleWork(goldenScale) }},
		{"double-net", func() Config {
			return Baseline(hh).WithCheckerboardRouting().WithDoubleNetwork().ScaleWork(goldenScale)
		}},
		{"multiport-mc", func() Config { return Baseline(hh).WithMCInjectionPorts(2).ScaleWork(goldenScale) }},
		{"faults-on", func() Config { return Baseline(ll).WithFaults(0.002, 7).ScaleWork(goldenScale) }},
		{"gto-1cycle", func() Config {
			c := Baseline(hh).With1CycleRouters().ScaleWork(goldenScale)
			c.Core.Scheduler = 1 // gpu.SchedGTO without importing gpu here
			return c
		}},
		// Non-mesh topology backends: the same closed-loop system on the
		// Wu-style ring (dateline VCs, arc-segment shards) and the BaseJump
		// single-flit DOR mesh (column-band shards), pinned through the
		// identical serial-vs-sharded matrix.
		{"ring", func() Config { return Ring(hh).ScaleWork(goldenScale) }},
		{"basejump", func() Config { return BaseJump(hh).ScaleWork(goldenScale) }},
	}
}

// goldenDigests maps case id -> sha256 over the run's Result and per-node
// flit counters, recorded at the pre-refactor seed state.
var goldenDigests = map[string]string{
	"baseline-dor":    "557ff6ccda4c9e8e662596e329c9c95542e3b3f911d64c908f956ffe0d5a8a0f",
	"checkerboard-cr": "f97af32099319b5bde62319898fc2f0b32c9265bc3d494f6a49188f3bcd9ddf6",
	"double-net":      "4efac4ba0ba848726ec33ed51a7da809d8e099b2e7fb4e58167c80dcd791d6fd",
	"multiport-mc":    "e917e230040d206fb4bb39615daeb19934543aff21a2de7818d39ddffbea3fe5",
	"faults-on":       "97847ca5ce152c9f81a316216a962a51d653cb447b99055b9276ac0dbef77d55",
	"gto-1cycle":      "db76eefa868c75cd2876fed07c006084bd5cf30c63cc972fa965b11ec89a00d3",
	"ring":            "51e4b0e39959fe1bc680344dd50762ead988123e32f4179b1857b47490d2c992",
	"basejump":        "1ad401730d4b84114e72652da7d59ec1d2a707ab764f70715b72a84ee896392b",
}

// digestRun hashes everything observable about a seeded run: scalar results
// (floats by their exact bit patterns), cycle counts, resilience counters and
// the per-node injected/ejected flit and packet tallies.
func digestRun(res Result, ns *noc.NetStats) string {
	h := sha256.New()
	wu := func(v uint64) { fmt.Fprintf(h, "%d,", v) }
	wf := func(v float64) { fmt.Fprintf(h, "%x,", math.Float64bits(v)) }
	fmt.Fprintf(h, "%s|%s|", res.Benchmark, res.Config)
	wu(res.ScalarInstrs)
	wu(res.CoreCycles)
	wu(res.IcntCycles)
	wf(res.IPC)
	wf(res.AvgNetLatency)
	wf(res.AcceptedBytes)
	wf(res.MCStallFraction)
	wf(res.MCInjRate)
	wf(res.CoreInjRate)
	wf(res.DRAMEfficiency)
	wf(res.L1HitRate)
	wf(res.L2HitRate)
	fmt.Fprintf(h, "%s|", res.Status)
	wu(res.RetxPackets)
	wu(res.DroppedPackets)
	wf(res.AvgRetries)
	wu(ns.FlitHops)
	wu(ns.CorruptFlits)
	wu(ns.LostCredits)
	wu(ns.StuckVCFaults)
	for _, v := range ns.InjectedFlits {
		wu(v)
	}
	for _, v := range ns.InjectedPackets {
		wu(v)
	}
	for _, v := range ns.EjectedFlits {
		wu(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenShardCounts is the sharded-kernel determinism matrix: every golden
// configuration must produce the SAME recorded digest under the serial
// kernel and under 2- and 4-way column-band sharding. One digest table
// serves all three, which is the point — sharding may only change
// wall-clock time, never a single bit of simulated behaviour.
var goldenShardCounts = []int{1, 2, 4}

// TestGoldenDigests proves seeded runs are bit-identical to the recorded
// pre-refactor behaviour across the configuration matrix, for the serial
// and the sharded cycle kernel alike.
func TestGoldenDigests(t *testing.T) {
	record := os.Getenv("GOLDEN_RECORD") != ""
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, shards := range goldenShardCounts {
			shards := shards
			t.Run(fmt.Sprintf("%s/shards-%d", gc.id, shards), func(t *testing.T) {
				sys, err := NewSystem(gc.build().WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				res, runErr := sys.Run(nil)
				if runErr != nil {
					t.Fatalf("run degraded: %v", runErr)
				}
				got := digestRun(res, sys.NetStats())
				if record {
					if shards == 1 {
						fmt.Printf("\t%q: %q,\n", gc.id, got)
					}
					return
				}
				want, ok := goldenDigests[gc.id]
				if !ok {
					t.Fatalf("no golden digest recorded for %s", gc.id)
				}
				if got != want {
					t.Errorf("digest mismatch for %s at %d shards:\n got  %s\n want %s\n"+
						"(a seeded run is no longer bit-identical; if the change is intentional, "+
						"re-record with GOLDEN_RECORD=1)", gc.id, shards, got, want)
				}
			})
		}
	}
}

// goldenLaneCounts is the lane-batched determinism matrix: every golden
// configuration must produce the SAME recorded digest when its seed runs
// solo, and when it runs as lane 0 of a 2- or 4-lane batch whose sibling
// lanes carry different seeds. Lane batching — like sharding — may only
// change wall-clock time, never a single bit of any lane's simulated
// behaviour, so the solo digest table serves every lane count.
var goldenLaneCounts = []int{1, 2, 4}

// TestGoldenDigestsLanes proves each lane of a lane-batched run is
// bit-identical to its solo serial run: lane 0 carries the golden seed and
// must reproduce the recorded digest; every sibling lane (seed+i) must
// reproduce the digest of its own solo run, computed on the fly. The
// lanes×shards point (2 lanes × 2 shards) pins the composition of the two
// wall-clock-only kernels.
func TestGoldenDigestsLanes(t *testing.T) {
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, lanesN := range goldenLaneCounts {
			lanesN := lanesN
			for _, shards := range []int{1, 2} {
				shards := shards
				if shards != 1 && lanesN != 2 {
					continue // one composition point per case keeps runtime sane
				}
				t.Run(fmt.Sprintf("%s/lanes-%d/shards-%d", gc.id, lanesN, shards), func(t *testing.T) {
					cfg := gc.build().WithShards(shards).WithLanes(lanesN)
					seeds := make([]uint64, lanesN)
					for i := range seeds {
						seeds[i] = cfg.Seed + uint64(i)
					}
					lanes, buildErrs := runLanes(nil, cfg, seeds)
					for i, l := range lanes {
						if l == nil {
							t.Fatalf("lane %d failed to build: %v", i, buildErrs[i])
						}
						if l.runErr != nil {
							t.Fatalf("lane %d degraded: %v", i, l.runErr)
						}
						got := digestRun(l.res, l.NetStats())
						want := ""
						if i == 0 {
							want = goldenDigests[gc.id]
						} else {
							// Sibling seeds have no recorded digest; their
							// reference is the solo run of the same seed.
							solo := cfg
							solo.Seed = seeds[i]
							sys, err := NewSystem(solo)
							if err != nil {
								t.Fatal(err)
							}
							res, runErr := sys.Run(nil)
							if runErr != nil {
								t.Fatalf("solo reference degraded: %v", runErr)
							}
							want = digestRun(res, sys.NetStats())
						}
						if got != want {
							t.Errorf("lane %d (seed %d) is not bit-identical to its solo run:\n got  %s\n want %s",
								i, seeds[i], got, want)
						}
					}
				})
			}
		}
	}
}

// TestGoldenDigestsStable runs one matrix point twice and demands identical
// digests, so flakiness in the harness itself (map iteration, pooling resets)
// cannot masquerade as refactor-induced drift.
func TestGoldenDigestsStable(t *testing.T) {
	gc := goldenMatrix()[0]
	var digests [2]string
	for i := range digests {
		sys, err := NewSystem(gc.build())
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := sys.Run(nil)
		if runErr != nil {
			t.Fatal(runErr)
		}
		digests[i] = digestRun(res, sys.NetStats())
	}
	if digests[0] != digests[1] {
		t.Fatalf("same config, different digests: %s vs %s", digests[0], digests[1])
	}
}
