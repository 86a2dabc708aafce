// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/tesimd) that accepts simulation and sweep
// requests, executes them on the resilient runner pool, and persists
// completed runs in a content-addressed result store built on the
// runner's fsynced checkpoint-journal format.
//
// The robustness surface is the point of the package:
//
//   - a bounded admission queue with load shedding: a full queue answers
//     429 with Retry-After instead of queueing unboundedly;
//   - per-request end-to-end deadlines propagated as contexts through
//     runner.Pool.Do into core.Run, so a disconnected client or an
//     expired deadline cancels in-flight simulation work;
//   - a crash-safe result store: every completed run is appended and
//     fsynced in the runner journal format, replayed on startup (torn
//     lines tolerated and counted), so a kill -9 loses at most the runs
//     still in flight and repeat queries are O(1) store hits;
//   - graceful drain on SIGTERM/SIGINT: stop admitting, finish or
//     checkpoint in-flight runs, fsync, exit 0 within a drain deadline;
//   - /healthz and /readyz that degrade honestly: readiness goes false
//     while draining or saturated, liveness never blocks on any lock.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

// DesignPoints returns the accepted configuration names, sorted: the
// Name of every core.DesignPoints row. GET /v1/configs lists them.
func DesignPoints() []string {
	var names []string
	for _, d := range core.DesignPoints() {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// topologyNeutral returns the sorted design points that carry no topology
// decision of their own and can therefore be re-targeted by Spec.Topology:
// mesh points that both non-mesh backends accept. The rest bake one in:
// checkerboard and ROMM routing and the double network are mesh-only, and
// the named Ring/BaseJump points already are their topology.
func topologyNeutral() []string {
	p := workload.Catalog()[0]
	var names []string
	for _, d := range core.DesignPoints() {
		cfg := d.Build(p)
		if cfg.Noc.Topology != noc.BackendMesh {
			continue
		}
		_, ringErr := cfg.WithTopology(noc.BackendRing)
		_, bjErr := cfg.WithTopology(noc.BackendBaseJump)
		if ringErr == nil && bjErr == nil {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Spec is the canonical form of one submission: the simulation work a job
// performs, stripped of transport options. Its JSON encoding is the
// content the job ID addresses — two requests that normalize to the same
// Spec are the same job, whatever order their lists arrived in.
type Spec struct {
	// Configs are design-point names (see DesignPoints).
	Configs []string `json:"configs"`
	// Benchmarks are Table I abbreviations (AES, MUM, ...).
	Benchmarks []string `json:"benchmarks"`
	// Seed is the traffic seed; 0 normalizes to 1.
	Seed uint64 `json:"seed"`
	// Seeds runs every (config, benchmark) pair once per listed seed.
	// Each seed is its own solo run: the daemon submits every run to the
	// pool alone, so nothing here is lane-batched. Sorted and
	// deduplicated; zero entries are rejected. A single-element list
	// normalizes into Seed, and an empty list means [Seed], so job IDs
	// from before this field existed stay valid.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scale multiplies the kernel length in (0, 1]; 0 normalizes to 1.
	Scale float64 `json:"scale"`
	// FaultRate enables the network fault injector when positive.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultSeed seeds the injector (only meaningful with FaultRate > 0).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Topology re-targets topology-neutral configs onto another network
	// backend: "ring" or "basejump". Empty and "mesh" both mean the mesh
	// default; "mesh" normalizes to empty so job IDs from before this field
	// existed stay valid.
	Topology string `json:"topology,omitempty"`
}

// Request is the POST /v1/runs body: a Spec plus per-request transport
// options that deliberately do not participate in content addressing.
type Request struct {
	Spec
	// Wait makes the POST synchronous: the response carries the final
	// result, and the job is cancelled if every waiting client
	// disconnects before it finishes.
	Wait bool `json:"wait,omitempty"`
	// DeadlineMS bounds the job end to end in milliseconds; 0 uses the
	// server default. Clamped to the server maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Canonical normalizes and validates a Spec: lists sorted and
// deduplicated, defaults filled, every name resolvable, and the run count
// bounded by maxRuns so one request cannot occupy the whole daemon.
func (s Spec) Canonical(maxRuns int) (Spec, error) {
	out := s
	out.Configs = sortedUnique(s.Configs)
	out.Benchmarks = sortedUnique(s.Benchmarks)
	if len(out.Configs) == 0 {
		return Spec{}, fmt.Errorf("configs required (one of %v)", DesignPoints())
	}
	if len(out.Benchmarks) == 0 {
		return Spec{}, fmt.Errorf("benchmarks required (Table I abbreviations, e.g. MUM)")
	}
	for _, name := range out.Configs {
		if _, ok := core.DesignPointNamed(name); !ok {
			return Spec{}, fmt.Errorf("unknown config %q (want one of %v)", name, DesignPoints())
		}
	}
	for _, abbr := range out.Benchmarks {
		if _, err := workload.ByAbbr(abbr); err != nil {
			return Spec{}, err
		}
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if len(out.Seeds) > 0 {
		for _, s := range out.Seeds {
			if s == 0 {
				return Spec{}, fmt.Errorf("seeds must be nonzero (got %v)", out.Seeds)
			}
		}
		out.Seeds = sortedUniqueUint64(out.Seeds)
		if len(out.Seeds) == 1 {
			// Canonical single-seed form is the scalar field, keeping job
			// IDs identical to pre-Seeds submissions of the same work.
			out.Seed = out.Seeds[0]
			out.Seeds = nil
		}
	}
	if out.Scale == 0 {
		out.Scale = 1
	}
	if out.Scale < 0 || out.Scale > 1 {
		return Spec{}, fmt.Errorf("scale %g out of (0, 1]", out.Scale)
	}
	if out.FaultRate < 0 || out.FaultRate > 1 {
		return Spec{}, fmt.Errorf("fault_rate %g out of [0, 1]", out.FaultRate)
	}
	switch out.Topology {
	case "mesh":
		out.Topology = "" // normalize: mesh is the zero value, so old job IDs still match
	case "", "ring", "basejump":
	default:
		return Spec{}, fmt.Errorf("unknown topology %q (want mesh, ring or basejump)", out.Topology)
	}
	if out.Topology != "" {
		neutral := topologyNeutral()
		for _, name := range out.Configs {
			if !slices.Contains(neutral, name) {
				return Spec{}, fmt.Errorf("config %q fixes its own topology; topology %q applies only to %v",
					name, out.Topology, neutral)
			}
		}
	}
	if runs := len(out.Configs) * len(out.Benchmarks) * len(out.SeedList()); runs > maxRuns {
		return Spec{}, fmt.Errorf("request is %d runs, server caps jobs at %d", runs, maxRuns)
	}
	return out, nil
}

// SeedList returns the seeds a canonical Spec runs: the explicit Seeds
// sweep, or the scalar Seed alone.
func (s Spec) SeedList() []uint64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	return []uint64{s.Seed}
}

// ID derives the content address of a canonical Spec: a stable hash of
// its JSON encoding. Identical work always maps to the same job ID, which
// is what lets a restarted daemon recognize a re-submitted sweep.
func (s Spec) ID() string {
	b, err := json.Marshal(s)
	if err != nil { // a Spec of strings and numbers cannot fail to encode
		panic(err)
	}
	sum := sha256.Sum256(b)
	return "r" + hex.EncodeToString(sum[:10])
}

// BuildConfigs expands a canonical Spec into its concrete run
// configurations in deterministic (config, benchmark) order.
func (s Spec) BuildConfigs() ([]core.Config, error) {
	cfgs := make([]core.Config, 0, len(s.Configs)*len(s.Benchmarks))
	for _, name := range s.Configs {
		d, ok := core.DesignPointNamed(name)
		if !ok {
			return nil, fmt.Errorf("unknown config %q", name)
		}
		for _, abbr := range s.Benchmarks {
			p, err := workload.ByAbbr(abbr)
			if err != nil {
				return nil, err
			}
			cfg := d.Build(p)
			if s.Topology != "" {
				kind, err := noc.ParseBackendKind(s.Topology)
				if err != nil {
					return nil, err
				}
				cfg, err = cfg.WithTopology(kind)
				if err != nil {
					return nil, err
				}
			}
			if s.Scale != 1 {
				cfg = cfg.ScaleWork(s.Scale)
			}
			if s.FaultRate > 0 {
				cfg = cfg.WithFaults(s.FaultRate, s.FaultSeed)
			}
			// Seeds of one (config, benchmark) pair sit adjacent in the
			// expansion; the daemon still runs each one alone.
			for _, seed := range s.SeedList() {
				c := cfg
				c.Seed = seed
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs, nil
}

func sortedUnique(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

func sortedUniqueUint64(in []uint64) []uint64 {
	out := append([]uint64(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
