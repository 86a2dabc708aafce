package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/noc"
	"repro/internal/xrand"
)

// Open-loop golden digests: the synthetic many-to-few-to-many harness pins
// the cycle kernel's behaviour under Bernoulli injection, covering the
// injection-rate paths (source-queue overflow, reply backlogs) that the
// closed-loop goldens in internal/core exercise only lightly. Recorded
// before the allocation-free kernel refactor; see internal/core/golden_test.go
// for the re-record procedure (env GOLDEN_RECORD=1).

type openGolden struct {
	id      string
	pattern Pattern
	rate    float64
	mesh    func() noc.Config
}

func openMatrix() []openGolden {
	base := func() noc.Config { return noc.DefaultConfig() }
	cb := func() noc.Config {
		cfg := noc.DefaultConfig()
		cfg.Checkerboard = true
		cfg.Routing = noc.RoutingCheckerboard
		cfg.NumVCs = 4
		cfg.MCs = noc.CheckerboardPlacement(6, 6, 8)
		return cfg
	}
	ringCfg := func() noc.Config {
		cfg := noc.DefaultConfig()
		cfg.Topology = noc.BackendRing
		cfg.NumVCs = 4 // class × dateline phase
		cfg.BufDepth = 4
		cfg.RouterStages = 2
		return cfg
	}
	bjCfg := func() noc.Config {
		cfg := noc.DefaultConfig()
		cfg.Topology = noc.BackendBaseJump
		cfg.FlitBytes = 64 // whole reply in one flit
		cfg.NumVCs = 2
		cfg.BufDepth = 2
		cfg.RouterStages = 2
		return cfg
	}
	// credLat runs mesh with a credit return latency other than the paper's
	// one cycle (0 is clamped to 1 by the router).
	credLat := func(mesh func() noc.Config, cycles uint64) func() noc.Config {
		return func() noc.Config {
			cfg := mesh()
			cfg.CreditLatency = cycles
			return cfg
		}
	}
	// mcEj varies the ejection side: MC ejection ports.
	mcEj := func(ports int) func() noc.Config {
		return func() noc.Config {
			cfg := base()
			cfg.MCEjPorts = ports
			return cfg
		}
	}
	return []openGolden{
		{"uniform-low", UniformRandom, 0.02, base},
		{"uniform-high", UniformRandom, 0.08, base},
		{"hotspot", Hotspot, 0.04, base},
		{"uniform-cb", UniformRandom, 0.04, cb},
		{"uniform-ring", UniformRandom, 0.02, ringCfg},
		{"uniform-bj", UniformRandom, 0.04, bjCfg},
		{"uniform-high-credlat-0", UniformRandom, 0.08, credLat(base, 0)},
		{"uniform-cb-credlat-2", UniformRandom, 0.04, credLat(cb, 2)},
		{"uniform-bj-credlat-5", UniformRandom, 0.04, credLat(bjCfg, 5)},
		{"multiport-mc-2e", UniformRandom, 0.08, mcEj(2)},
	}
}

var openGoldenDigests = map[string]string{
	"uniform-low":  "867304abbd27626400e110bd73cf6af7b65290eb8cdb82e12213841ce5cf5f14",
	"uniform-high": "30441cffff5917d81ce04f9d9e258d8fcb41ffb3b7ac73cd3b6b9cfa9e2f9a61",
	"hotspot":      "7bc469d273d16a039b431391b233656b92826f37b54c79cd5fd07944f19fb944",
	"uniform-cb":   "a04734af6ef791e75c420d3d21a20d3d7231125d2f8a5f823977b5519b16c0c5",
	"uniform-ring": "1f3a596721767b7e6f491f5f2da0a80fd03c8192832312c93b4044b4702ca816",
	"uniform-bj":   "06595778788992f3eaa01a4fa076d21f8f6c4cb654dbcd3ad4416978f7b33622",
	// uniform-high-credlat-0 equals uniform-high: a zero credit latency runs
	// as one cycle.
	"uniform-high-credlat-0": "30441cffff5917d81ce04f9d9e258d8fcb41ffb3b7ac73cd3b6b9cfa9e2f9a61",
	"uniform-cb-credlat-2":   "03f3ac47655e87c17811fd519be76c975ce573f948dea4fe5ad8822e1d4a09d7",
	"uniform-bj-credlat-5":   "e28058976a8d84f6f8e133940ce8c2b8eb8173037eaca4516daeb8d67a8f9ed8",
	"multiport-mc-2e":        "b5130c35415321c135fca947da1b9206cc970ca77cfc9d23c301a15c4944ae28",
}

func digestOpenLoop(res Result, ns *noc.NetStats) string {
	h := sha256.New()
	wf := func(v float64) { fmt.Fprintf(h, "%x,", math.Float64bits(v)) }
	wf(res.OfferedLoad)
	wf(res.AcceptedLoad)
	wf(res.AvgLatency)
	wf(res.P50Latency)
	wf(res.P99Latency)
	wf(res.AvgRoundTrip)
	wf(res.ReplyInjectRate)
	fmt.Fprintf(h, "%d,%v,", res.MeasuredPackets, res.Saturated)
	fmt.Fprintf(h, "%d,", ns.FlitHops)
	for _, v := range ns.InjectedFlits {
		fmt.Fprintf(h, "%d,", v)
	}
	for _, v := range ns.EjectedFlits {
		fmt.Fprintf(h, "%d,", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runner builds an open-loop Runner over fresh meshes of the point's
// configuration, handing each network to keep as it is built.
func (og openGolden) runner(keep func(noc.Network)) *Runner {
	return NewRunner(func() (noc.Network, noc.Backend) {
		m := noc.MustNewMesh(og.mesh())
		keep(m)
		return m, m.Backend()
	})
}

// config is the point's pattern, rate and measurement schedule.
func (og openGolden) config() Config {
	cfg := DefaultConfig()
	cfg.Pattern = og.pattern
	cfg.InjectionRate = og.rate
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 4000
	return cfg
}

// digest runs cfg alone over a fresh network and returns its digest.
func (og openGolden) digest(cfg Config) string {
	var last noc.Network
	res := og.runner(func(n noc.Network) { last = n }).Run(cfg)
	return digestOpenLoop(res, last.Stats())
}

// openWidths is the width axis of the open-loop matrix. A shards-N row runs
// N copies of its point at once, one goroutine each, and demands the same
// digest from every copy, so concurrent runs provably share no state. The
// rows keep the names they had when N split a single run across shard
// workers; that kernel is gone, and whole runs are the only unit of
// parallelism left.
var openWidths = []int{1, 2, 4}

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

// TestOpenLoopGoldenDigests pins the open-loop harness bit-exactly at eleven
// seeded operating points (eight mesh, one ring, two basejump; three of them
// at a credit latency other than one cycle, two on the ejection side), alone
// and with copies running concurrently.
func TestOpenLoopGoldenDigests(t *testing.T) {
	record := os.Getenv("GOLDEN_RECORD") != ""
	for _, og := range openMatrix() {
		og := og
		for _, width := range openWidths {
			width := width
			t.Run(fmt.Sprintf("%s/shards-%d", og.id, width), func(t *testing.T) {
				digests := make([]string, width)
				concurrently(width, func(i int) { digests[i] = og.digest(og.config()) })
				if record {
					if width == 1 {
						fmt.Printf("\t%q: %q,\n", og.id, digests[0])
					}
					return
				}
				want := openGoldenDigests[og.id]
				for i, got := range digests {
					if got != want {
						t.Errorf("open-loop digest mismatch for %s, copy %d of %d:\n got  %s\n want %s",
							og.id, i, width, got, want)
					}
				}
			})
		}
	}
}

// TestOpenLoopGoldenDigestsLanes pins that a reused Runner carries no state
// between runs, which is how Fig21 drives one Runner across offered loads. A
// lanes-N row runs seeds Seed…Seed+N−1 one after another through one
// Runner: seed Seed must reproduce the recorded digest, and every later seed
// must reproduce a fresh Runner's run of the same seed. The shards-2 point
// runs two such sequences concurrently. The rows keep the names they had
// when N seeds advanced through one lockstep loop; that loop is gone.
func TestOpenLoopGoldenDigestsLanes(t *testing.T) {
	for _, og := range openMatrix() {
		og := og
		for _, lanesN := range []int{2, 4} {
			lanesN := lanesN
			for _, width := range []int{1, 2} {
				width := width
				if width != 1 && lanesN != 2 {
					continue // one concurrent point per case keeps runtime sane
				}
				t.Run(fmt.Sprintf("%s/lanes-%d/shards-%d", og.id, lanesN, width), func(t *testing.T) {
					seedCfg := func(i int) Config {
						cfg := og.config()
						cfg.Seed += uint64(i)
						return cfg
					}
					got := make([][]string, width)
					concurrently(width, func(b int) {
						var last noc.Network
						r := og.runner(func(n noc.Network) { last = n })
						for i := 0; i < lanesN; i++ {
							res := r.Run(seedCfg(i))
							got[b] = append(got[b], digestOpenLoop(res, last.Stats()))
						}
					})
					want := make([]string, lanesN)
					want[0] = openGoldenDigests[og.id]
					for i := 1; i < lanesN; i++ {
						// Later seeds have no recorded digest; their reference
						// is a fresh Runner's run of the same seed.
						want[i] = og.digest(seedCfg(i))
					}
					for b := range got {
						for i := range got[b] {
							if got[b][i] != want[i] {
								t.Errorf("sequence %d run %d (seed %d) differs from a fresh run:\n got  %s\n want %s",
									b, i, og.config().Seed+uint64(i), got[b][i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// shuffledDeliveries hands each Delivered batch back in a seeded random
// interleaving across nodes that keeps each node's packets in their order.
type shuffledDeliveries struct {
	noc.Network
	rng *xrand.Rand
	out []*noc.Packet
}

func (s *shuffledDeliveries) Delivered() []*noc.Packet {
	batch := s.Network.Delivered()
	s.out = append(s.out[:0], batch...)
	for i := len(s.out) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		s.out[i], s.out[j] = s.out[j], s.out[i]
	}
	// The shuffle picks which node comes next; each node's packets then
	// fill its turns in batch order.
	queue := map[noc.NodeID][]*noc.Packet{}
	for _, p := range batch {
		queue[p.Dst] = append(queue[p.Dst], p)
	}
	for i, p := range s.out {
		q := queue[p.Dst]
		s.out[i], queue[p.Dst] = q[0], q[1:]
	}
	return s.out
}

// TestShuffledDeliveriesMatchGoldens runs every open-loop golden point with
// its delivery batches shuffled across nodes and demands the recorded
// digest: the harness may depend on each node's own order, never on the
// order across nodes.
func TestShuffledDeliveriesMatchGoldens(t *testing.T) {
	for _, og := range openMatrix() {
		og := og
		t.Run(og.id, func(t *testing.T) {
			var net noc.Network
			res := NewRunner(func() (noc.Network, noc.Backend) {
				m := noc.MustNewMesh(og.mesh())
				net = &shuffledDeliveries{Network: m, rng: xrand.New(59)}
				return net, m.Backend()
			}).Run(og.config())
			if got, want := digestOpenLoop(res, net.Stats()), openGoldenDigests[og.id]; got != want {
				t.Errorf("shuffled deliveries moved %s:\n got  %s\n want %s", og.id, got, want)
			}
		})
	}
}
