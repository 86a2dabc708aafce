package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
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
		// Wu-style ring (dateline VCs) and the BaseJump single-flit DOR mesh.
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

// goldenWidths is the width axis of the determinism matrix. A shards-N row
// runs N copies of its point at once, one goroutine each, and demands the
// recorded digest from every copy: runs sharing a process, as the runner's
// job pool places them, must share no state. The rows keep the names they
// had when N split a single run across shard workers; that kernel is gone,
// and whole runs are the only unit of parallelism left.
var goldenWidths = []int{1, 2, 4}

// concurrently calls run(i) for every i in [0, n) on n goroutines at once
// and returns when all have finished.
func concurrently(n int, run func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
}

// soloDigest runs cfg alone and returns its digest.
func soloDigest(t *testing.T, cfg Config) string {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := sys.Run(nil)
	if runErr != nil {
		t.Fatalf("run degraded: %v", runErr)
	}
	return digestRun(res, sys.NetStats())
}

// TestGoldenDigests proves seeded runs are bit-identical to the recorded
// pre-refactor behaviour across the configuration matrix, alone and with
// copies running concurrently.
func TestGoldenDigests(t *testing.T) {
	record := os.Getenv("GOLDEN_RECORD") != ""
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, width := range goldenWidths {
			width := width
			t.Run(fmt.Sprintf("%s/shards-%d", gc.id, width), func(t *testing.T) {
				digests := make([]string, width)
				errs := make([]error, width)
				concurrently(width, func(i int) {
					sys, err := NewSystem(gc.build())
					if err != nil {
						errs[i] = err
						return
					}
					res, runErr := sys.Run(nil)
					digests[i], errs[i] = digestRun(res, sys.NetStats()), runErr
				})
				for i, err := range errs {
					if err != nil {
						t.Fatalf("copy %d of %d failed: %v", i, width, err)
					}
				}
				if record {
					if width == 1 {
						fmt.Printf("\t%q: %q,\n", gc.id, digests[0])
					}
					return
				}
				want, ok := goldenDigests[gc.id]
				if !ok {
					t.Fatalf("no golden digest recorded for %s", gc.id)
				}
				for i, got := range digests {
					if got != want {
						t.Errorf("digest mismatch for %s, copy %d of %d:\n got  %s\n want %s\n"+
							"(a seeded run is no longer bit-identical; if the change is intentional, "+
							"re-record with GOLDEN_RECORD=1)", gc.id, i, width, got, want)
					}
				}
			})
		}
	}
}

// goldenLaneCounts is the lane-batched determinism matrix: every golden
// configuration must produce the SAME recorded digest when its seed runs
// solo, and when it runs as lane 0 of a 2- or 4-lane batch whose sibling
// lanes carry different seeds. Lane batching may only change wall-clock
// time, never a single bit of any lane's simulated behaviour, so the solo
// digest table serves every lane count.
var goldenLaneCounts = []int{1, 2, 4}

// TestGoldenDigestsLanes proves each lane of a lane-batched run is
// bit-identical to its solo serial run: lane 0 carries the golden seed and
// must reproduce the recorded digest; every sibling lane (seed+i) must
// reproduce the digest of its own solo run, computed on the fly. The
// shards-2 point runs two batches concurrently, pinning lane batching
// together with whole-run parallelism.
func TestGoldenDigestsLanes(t *testing.T) {
	for _, gc := range goldenMatrix() {
		gc := gc
		for _, lanesN := range goldenLaneCounts {
			lanesN := lanesN
			for _, width := range []int{1, 2} {
				width := width
				if width != 1 && lanesN != 2 {
					continue // one concurrent point per case keeps runtime sane
				}
				t.Run(fmt.Sprintf("%s/lanes-%d/shards-%d", gc.id, lanesN, width), func(t *testing.T) {
					cfg := gc.build()
					seeds := make([]uint64, lanesN)
					for i := range seeds {
						seeds[i] = cfg.Seed + uint64(i)
					}
					batches := make([][]*System, width)
					buildErrs := make([][]error, width)
					concurrently(width, func(b int) {
						batches[b], buildErrs[b] = runLanes(nil, cfg, seeds)
					})
					want := make([]string, lanesN)
					want[0] = goldenDigests[gc.id]
					for i := 1; i < lanesN; i++ {
						// Sibling seeds have no recorded digest; their
						// reference is the solo run of the same seed.
						solo := cfg
						solo.Seed = seeds[i]
						want[i] = soloDigest(t, solo)
					}
					for b, lanes := range batches {
						for i, l := range lanes {
							if l == nil {
								t.Fatalf("batch %d lane %d failed to build: %v", b, i, buildErrs[b][i])
							}
							if l.runErr != nil {
								t.Fatalf("batch %d lane %d degraded: %v", b, i, l.runErr)
							}
							if got := digestRun(l.res, l.NetStats()); got != want[i] {
								t.Errorf("batch %d lane %d (seed %d) is not bit-identical to its solo run:\n got  %s\n want %s",
									b, i, seeds[i], got, want[i])
							}
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
