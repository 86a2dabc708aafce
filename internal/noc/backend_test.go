package noc

import "testing"

// backendPartitionConfigs returns one buildable configuration per topology
// backend, tuned the way the core design points tune them.
func backendPartitionConfigs() map[string]Config {
	mesh := DefaultConfig()
	ring := DefaultConfig()
	ring.Topology = BackendRing
	ring.NumVCs = 4
	ring.BufDepth = 4
	ring.RouterStages = 2
	bj := DefaultConfig()
	bj.Topology = BackendBaseJump
	bj.FlitBytes = 64
	bj.NumVCs = 2
	bj.BufDepth = 2
	bj.RouterStages = 2
	return map[string]Config{"mesh": mesh, "ring": ring, "basejump": bj}
}

// TestBackendPartitionContract property-checks every backend's ShardOf for
// every shard count up to MaxShards: each node maps to exactly one in-range
// shard, no shard is empty (MaxShards must not overpromise), and bands are
// contiguous — wired neighbours sit in the same or an adjacent band (the
// ring's wrap link joining the last band back to the first). Contiguity is
// what guarantees every cross-shard channel straddles a band boundary,
// which the mailbox hand-off design rests on.
func TestBackendPartitionContract(t *testing.T) {
	for name, cfg := range backendPartitionConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			backend := MustBuildBackend(cfg)
			for S := 1; S <= backend.MaxShards(); S++ {
				counts := make([]int, S)
				for id := 0; id < backend.NumNodes(); id++ {
					sh := backend.ShardOf(NodeID(id), S)
					if sh < 0 || sh >= S {
						t.Fatalf("S=%d: node %d in shard %d, out of [0,%d)", S, id, sh, S)
					}
					counts[sh]++
				}
				total := 0
				for k, c := range counts {
					if c == 0 {
						t.Fatalf("S=%d: shard %d empty (MaxShards=%d overpromises)",
							S, k, backend.MaxShards())
					}
					total += c
				}
				if total != backend.NumNodes() {
					t.Fatalf("S=%d: %d nodes assigned, want %d", S, total, backend.NumNodes())
				}
				for id := 0; id < backend.NumNodes(); id++ {
					a := backend.ShardOf(NodeID(id), S)
					for d := Port(0); d < numDirs; d++ {
						nb := backend.Neighbor(NodeID(id), d)
						if nb < 0 {
							continue
						}
						diff := a - backend.ShardOf(nb, S)
						if diff < 0 {
							diff = -diff
						}
						if diff > 1 && diff != S-1 {
							t.Fatalf("S=%d: wired neighbours %d (shard %d) and %d (shard %d) skip a band",
								S, id, a, nb, backend.ShardOf(nb, S))
						}
					}
				}
			}
		})
	}
}

// TestBackendMailboxCaps extends the mailbox sizing invariant of
// TestShardPartitionInvariants to every backend: exactly the cross-shard
// channels get a mailbox,
// and each mailbox's hard capacity equals the number of boundary channels
// feeding it — the most the one-send-per-channel flow-control bound lets
// arrive in a single cycle.
func TestBackendMailboxCaps(t *testing.T) {
	for name, cfg := range backendPartitionConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			cfg.Shards = 3
			cfg.Fault.WatchdogCycles = 0
			m := MustNewMesh(cfg)
			n := &m.meshNet
			if len(n.shards) != 3 {
				t.Fatalf("got %d shards, want 3", len(n.shards))
			}
			nbf := make([]int, len(n.shards))
			for i, ch := range n.flitChans {
				srcSh, dstSh := n.shardOf(ch.src), ch.dst.sh
				if srcSh != dstSh {
					if ch.xmail != &srcSh.outFlit {
						t.Fatalf("cross-shard flit channel %d not wired to source shard %d's mailbox",
							i, srcSh.idx)
					}
					nbf[srcSh.idx]++
				} else if ch.xmail != nil {
					t.Fatalf("intra-shard flit channel %d has a mailbox", i)
				}
			}
			nbc := make([]int, len(n.shards))
			for i, cc := range n.credChans {
				srcSh, dstSh := n.shardOf(cc.src), cc.dst.sh
				if srcSh != dstSh {
					if cc.xmail != &srcSh.outCred {
						t.Fatalf("cross-shard credit channel %d not wired to source shard %d's mailbox",
							i, srcSh.idx)
					}
					nbc[srcSh.idx]++
				} else if cc.xmail != nil {
					t.Fatalf("intra-shard credit channel %d has a mailbox", i)
				}
			}
			for k, sh := range n.shards {
				if sh.outFlit.Cap() != nbf[k] {
					t.Errorf("shard %d flit mailbox cap %d, want boundary count %d",
						k, sh.outFlit.Cap(), nbf[k])
				}
				if sh.outCred.Cap() != nbc[k] {
					t.Errorf("shard %d credit mailbox cap %d, want boundary count %d",
						k, sh.outCred.Cap(), nbc[k])
				}
			}
		})
	}
}
