package noc

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// shardTestMesh builds a mesh with the given shard count and the health
// monitors disabled, so tests can feed channels by hand without tripping
// the flit-conservation audit.
func shardTestMesh(t *testing.T, shards int) *Mesh {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.Fault.WatchdogCycles = 0
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShardPartitionInvariants checks the structural facts the sharded
// kernel rests on: routers land in contiguous column bands, and exactly the
// cross-band channels get a mailbox — whose hard capacity equals the number of channels feeding it,
// the most the flow-control bound lets arrive in one cycle.
func TestShardPartitionInvariants(t *testing.T) {
	m := shardTestMesh(t, 4)
	n := &m.meshNet
	if len(n.shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(n.shards))
	}
	for id, r := range n.routers {
		x := id % n.cfg.Width
		if want := n.shards[n.backend.ShardOf(NodeID(id), len(n.shards))]; r.sh != want {
			t.Fatalf("router %d (x=%d) in shard %d, want %d", id, x, r.sh.idx, want.idx)
		}
	}
	nbf := make([]int, len(n.shards))
	for i, ch := range n.flitChans {
		srcSh, dstSh := n.shardOf(ch.src), ch.dst.sh
		sx, dx := int(ch.src)%n.cfg.Width, int(ch.dst.p.node)%n.cfg.Width
		if sx == dx && ch.xmail != nil {
			t.Fatalf("N/S channel %d (column %d) has a cross-shard mailbox", i, sx)
		}
		switch {
		case srcSh == dstSh:
			if ch.xmail != nil {
				t.Fatalf("intra-shard channel %d has a mailbox", i)
			}
		default:
			if ch.xmail != &srcSh.outFlit {
				t.Fatalf("cross-shard channel %d not wired to source shard %d's mailbox", i, srcSh.idx)
			}
			nbf[srcSh.idx]++
		}
	}
	nbc := make([]int, len(n.shards))
	for i, cc := range n.credChans {
		srcSh, dstSh := n.shardOf(cc.src), cc.dst.sh
		if srcSh != dstSh {
			if cc.xmail != &srcSh.outCred {
				t.Fatalf("cross-shard credit channel %d not wired to source shard %d's mailbox", i, srcSh.idx)
			}
			nbc[srcSh.idx]++
		} else if cc.xmail != nil {
			t.Fatalf("intra-shard credit channel %d has a mailbox", i)
		}
	}
	for k, sh := range n.shards {
		if sh.outFlit.Cap() != nbf[k] {
			t.Errorf("shard %d flit mailbox cap %d, want boundary count %d", k, sh.outFlit.Cap(), nbf[k])
		}
		if sh.outCred.Cap() != nbc[k] {
			t.Errorf("shard %d credit mailbox cap %d, want boundary count %d", k, sh.outCred.Cap(), nbc[k])
		}
	}
}

// TestShardClamping pins the shard-count policy: requests are clamped to
// [1, Width], and fault injection forces the serial kernel so the single
// fault RNG keeps its draw order.
func TestShardClamping(t *testing.T) {
	if got := len(shardTestMesh(t, 100).shards); got != 6 {
		t.Errorf("Shards=100 on a 6-wide mesh: got %d shards, want 6 (clamp to Width)", got)
	}
	if got := len(shardTestMesh(t, 0).shards); got != 1 {
		t.Errorf("Shards=0: got %d shards, want 1", got)
	}
	if got := len(shardTestMesh(t, -3).shards); got != 1 {
		t.Errorf("Shards=-3: got %d shards, want 1", got)
	}
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.Fault.Rate = 0.001
	m := MustNewMesh(cfg)
	if got := len(m.shards); got != 1 {
		t.Errorf("fault injection enabled: got %d shards, want 1 (forced serial)", got)
	}
}

// TestBoundaryMailboxHardBound fills one shard's outgoing flit mailbox to
// its credit-conservation bound — one flit per boundary channel, the most a
// single cycle can produce — and demands a panic on the first push past it.
// A silent grow would hide a broken single-send-per-channel invariant.
func TestBoundaryMailboxHardBound(t *testing.T) {
	m := shardTestMesh(t, 2)
	n := &m.meshNet
	var boundary []*channel
	for _, ch := range n.flitChans {
		if ch.xmail == &n.shards[0].outFlit {
			boundary = append(boundary, ch)
		}
	}
	if len(boundary) == 0 {
		t.Fatal("no boundary channels out of shard 0")
	}
	if got := n.shards[0].outFlit.Cap(); got != len(boundary) {
		t.Fatalf("mailbox cap %d != boundary channel count %d", got, len(boundary))
	}
	for _, ch := range boundary {
		ch.send(Flit{arrived: n.cycle + 1}, n.cycle)
	}
	defer func() {
		if recover() == nil {
			t.Error("push past the mailbox hard bound did not panic")
		}
	}()
	boundary[0].send(Flit{arrived: n.cycle + 1}, n.cycle)
}

// TestBoundaryMailboxWrapDrain runs one boundary channel through several
// times its mailbox's capacity, draining via the epilogue each cycle, so the
// ring head wraps repeatedly. Flits must come out in send order, land in the
// destination's input VC still stamped as on the wire, and put the owning
// shard's router on its active list.
func TestBoundaryMailboxWrapDrain(t *testing.T) {
	m := shardTestMesh(t, 2)
	n := &m.meshNet
	var ch *channel
	for _, c := range n.flitChans {
		if c.xmail == &n.shards[0].outFlit {
			ch = c
			break
		}
	}
	if ch == nil {
		t.Fatal("no boundary channel out of shard 0")
	}
	r := ch.dst
	idx := r.inIdx(ch.dstPort, 0)
	ivc := &r.inputs[idx]
	rounds := 3*n.shards[0].outFlit.Cap() + 5
	for i := 0; i < rounds; i++ {
		ch.send(Flit{Seq: int32(i), Head: true, Tail: true, arrived: n.cycle + 1}, n.cycle)
		if ivc.buf.Len() != 0 {
			t.Fatalf("round %d: a cross-shard send touched the foreign buffer before the epilogue", i)
		}
		n.epilogue()
		if ivc.buf.Len() != 1 || r.arrMask != 1<<uint(idx) {
			t.Fatalf("round %d: %d flits buffered, arrMask %#x after drain, want 1 flit on the wire",
				i, ivc.buf.Len(), r.arrMask)
		}
		if !r.sh.rtrActive.has(int(r.p.node)) {
			t.Fatalf("round %d: destination router not marked active in owning shard", i)
		}
		if f := ivc.buf.Pop(); int(f.Seq) != i {
			t.Fatalf("round %d: got flit seq %d, want %d (FIFO order broken across wrap)", i, f.Seq, i)
		}
		ivc.nextAt, r.arrMask = NeverCycle, 0
		r.sh.rtrActive.clear(int(r.p.node))
	}
}

// refTraffic drives one randomized injection step against a mesh: the trace
// is a pure function of the xrand stream, so two meshes fed from identically
// seeded streams see byte-identical offered traffic.
func refTraffic(rng *xrand.Rand, nodes int) (src, dst NodeID, class TrafficClass, bytes int) {
	src = NodeID(rng.Intn(nodes))
	dst = NodeID(rng.Intn(nodes - 1))
	if dst >= src {
		dst++ // uniform over dst != src
	}
	class = TrafficClass(rng.Intn(int(NumClasses)))
	bytes = 8
	if rng.Bool(0.5) {
		bytes = 64
	}
	return src, dst, class, bytes
}

// TestShardedMatchesSerialReference is the reference-model cross-check: a
// serial mesh and a sharded mesh consume the same randomized traffic trace
// in lockstep, and every cycle the sharded kernel must eject exactly the
// packets the serial kernel ejects, at the same nodes, in the same order,
// with the same timestamps. Final counters and latency sums must match to
// the bit. This catches ordering bugs the aggregate golden digests could
// mask (e.g. two reorderings that cancel in a sum).
func TestShardedMatchesSerialReference(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(map[int]string{2: "two-shard", 4: "four-shard"}[shards], func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 99
			ref := MustNewMesh(cfg)
			cfg.Shards = shards
			shd := MustNewMesh(cfg)

			nodes := ref.Topology().NumNodes()
			// Two identically seeded streams, one per mesh, so packet
			// construction cannot leak state between the two models.
			rngRef := xrand.New(0xfeed)
			rngShd := xrand.New(0xfeed)

			const warm = 2500
			const drain = 8000
			for cycle := 0; cycle < warm+drain; cycle++ {
				if cycle < warm {
					for k := 0; k < 3; k++ {
						s1, d1, c1, b1 := refTraffic(rngRef, nodes)
						s2, d2, c2, b2 := refTraffic(rngShd, nodes)
						if s1 != s2 || d1 != d2 || c1 != c2 || b1 != b2 {
							t.Fatal("traffic streams diverged; test harness bug")
						}
						ok1 := ref.CanInject(s1, c1)
						ok2 := shd.CanInject(s2, c2)
						if ok1 != ok2 {
							t.Fatalf("cycle %d: CanInject(%d,%v) disagrees: serial=%v sharded=%v",
								cycle, s1, c1, ok1, ok2)
						}
						if !ok1 {
							continue
						}
						p1 := &Packet{Src: s1, Dst: d1, Class: c1, Bytes: b1}
						p2 := &Packet{Src: s2, Dst: d2, Class: c2, Bytes: b2}
						if !ref.TryInject(p1) || !shd.TryInject(p2) {
							t.Fatalf("cycle %d: inject disagreed after CanInject", cycle)
						}
					}
				}
				ref.Tick()
				shd.Tick()
				for node := 0; node < nodes; node++ {
					got := shd.Delivered(NodeID(node))
					want := ref.Delivered(NodeID(node))
					if len(got) != len(want) {
						t.Fatalf("cycle %d node %d: sharded delivered %d packets, serial %d",
							cycle, node, len(got), len(want))
					}
					for i := range want {
						w, g := want[i], got[i]
						if g.ID != w.ID || g.Src != w.Src || g.Dst != w.Dst || g.Class != w.Class ||
							g.InjectedAt != w.InjectedAt || g.ArrivedAt != w.ArrivedAt {
							t.Fatalf("cycle %d node %d slot %d: packet mismatch\n got  %+v\n want %+v",
								cycle, node, i, g, w)
						}
					}
				}
				if cycle >= warm && ref.Quiet() && shd.Quiet() {
					break
				}
			}
			if !ref.Quiet() || !shd.Quiet() {
				t.Fatal("meshes did not drain; raise drain budget")
			}

			rs, ss := ref.Stats(), shd.Stats()
			if rs.FlitHops != ss.FlitHops {
				t.Errorf("FlitHops: serial %d, sharded %d", rs.FlitHops, ss.FlitHops)
			}
			if rs.Cycles != ss.Cycles {
				t.Errorf("Cycles: serial %d, sharded %d", rs.Cycles, ss.Cycles)
			}
			for n := 0; n < nodes; n++ {
				if rs.InjectedFlits[n] != ss.InjectedFlits[n] || rs.EjectedFlits[n] != ss.EjectedFlits[n] {
					t.Errorf("node %d flit counters diverge: inj %d/%d ej %d/%d", n,
						rs.InjectedFlits[n], ss.InjectedFlits[n], rs.EjectedFlits[n], ss.EjectedFlits[n])
				}
			}
			// Latency sums must match BITWISE: the epilogue's node-ascending
			// sample replay exists precisely so float accumulation order is
			// identical to the serial kernel's ejection order.
			pairs := [][2]float64{
				{rs.NetLatency.Sum(), ss.NetLatency.Sum()},
				{rs.TotalLatency.Sum(), ss.TotalLatency.Sum()},
			}
			for c := 0; c < int(NumClasses); c++ {
				pairs = append(pairs, [2]float64{rs.LatencyByClass[c].Sum(), ss.LatencyByClass[c].Sum()})
			}
			for i, p := range pairs {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Errorf("latency sum %d not bit-identical: serial %x, sharded %x",
						i, math.Float64bits(p[0]), math.Float64bits(p[1]))
				}
			}
		})
	}
}
