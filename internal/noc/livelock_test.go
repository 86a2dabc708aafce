package noc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// Pinned verdict of TestLivelockVerdict's traffic: the cycle the livelock
// monitor trips and the wire ID of the packet it names. The replay oracle
// below derives both independently; the constants additionally hold the
// verdict to the cycle it has always landed on. Fourteen heads cross the
// budget on that cycle; packet 16 wins at router 1 although packet 1 is
// among them, so router order, not packet order, decides.
const (
	livelockBudget = 4
	livelockCycle  = 24
	livelockPkt    = 16
)

// livelockTraffic injects one request from every compute node to an MC,
// spread so that many routes exceed livelockBudget switch traversals and
// several heads cross the budget on the same cycle.
func livelockTraffic(t *testing.T, m *Mesh) []*Packet {
	t.Helper()
	topo := m.Topology()
	mcs := topo.MCs()
	var pkts []*Packet
	for i, src := range topo.ComputeNodes() {
		p := &Packet{Src: src, Dst: mcs[(i*5)%len(mcs)], Class: ClassRequest, Bytes: 8}
		if !m.TryInject(p) {
			t.Fatalf("inject %d->%d refused", p.Src, p.Dst)
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// traversalAt returns the router and output port of pkt's k-th switch
// traversal (k from 1; the last one is the ejection at the destination).
func traversalAt(b Backend, pkt *Packet, k int) (NodeID, int) {
	q := *pkt
	cur := q.Src
	for i := 1; ; i++ {
		out, eject := b.NextHop(cur, &q)
		port := int(out)
		if eject {
			port = int(numDirs)
		}
		if i == k {
			return cur, port
		}
		if eject {
			panic(fmt.Sprintf("packet %d->%d makes fewer than %d traversals", pkt.Src, pkt.Dst, k))
		}
		cur = b.Neighbor(cur, out)
	}
}

// TestLivelockVerdict pins the deferred livelock verdict. With a tiny hop
// budget and the watchdog on, multi-hop traffic must trip fault.ErrLivelock
// on the cycle the first head flit makes its budget+1-th switch traversal,
// and the diagnostic must name the packet whose traversal comes first in the
// kernel's order: ascending router, then ascending output port. An
// unbudgeted replay of the same run (the budget changes nothing but the
// verdict) supplies the expected cycle and packet.
func TestLivelockVerdict(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Fault.Monitored() {
		t.Fatal("default config has the watchdog off")
	}
	cfg.Fault.HopBudget = livelockBudget

	ref := cfg
	ref.Fault.HopBudget = 1 << 20
	rm := MustNewMesh(ref)
	rpkts := livelockTraffic(t, rm)
	var wantCycle uint64
	var want *Packet
	candidates := 0
	for c := 0; c < 1000 && want == nil; c++ {
		rm.Tick()
		collectAll(rm, rm.Backend().NumNodes())
		bestKey := -1
		for _, p := range rpkts {
			if p.hops != livelockBudget+1 {
				continue
			}
			node, port := traversalAt(rm.Backend(), p, livelockBudget+1)
			if key := int(node)*16 + port; bestKey < 0 || key < bestKey {
				bestKey, want = key, p
			}
			candidates++
		}
		wantCycle = rm.Cycle()
	}
	if want == nil {
		t.Fatal("no packet exceeded the hop budget in the replay")
	}
	if candidates < 2 {
		t.Fatalf("only %d packet crosses the budget on cycle %d; the router order is not exercised",
			candidates, wantCycle)
	}

	m := MustNewMesh(cfg)
	livelockTraffic(t, m)
	var verdict error
	for c := 0; c < 1000 && verdict == nil; c++ {
		m.Tick()
		collectAll(m, m.Backend().NumNodes())
		verdict = m.Health()
	}
	if !errors.Is(verdict, fault.ErrLivelock) {
		t.Fatalf("verdict %v, want ErrLivelock", verdict)
	}
	if m.Cycle() != wantCycle {
		t.Errorf("livelock tripped at cycle %d, replay says %d", m.Cycle(), wantCycle)
	}
	if m.Cycle() != livelockCycle || want.ID != livelockPkt {
		t.Errorf("verdict (cycle %d, packet %d), pinned (cycle %d, packet %d)",
			m.Cycle(), want.ID, livelockCycle, livelockPkt)
	}
	var he *fault.HangError
	if !fault.AsHang(verdict, &he) {
		t.Fatal("verdict does not carry a HangError")
	}
	if he.Diag.Kind != "livelock" || he.Diag.Cycle != m.Cycle() {
		t.Errorf("diagnostic %q at cycle %d, want livelock at %d", he.Diag.Kind, he.Diag.Cycle, m.Cycle())
	}
	prefix := fmt.Sprintf("packet %d (%d->%d,", want.ID, want.Src, want.Dst)
	suffix := fmt.Sprintf("exceeded hop budget %d", livelockBudget)
	named := false
	for _, note := range he.Diag.Notes {
		if strings.HasPrefix(note, prefix) && strings.HasSuffix(note, suffix) {
			named = true
		}
	}
	if !named {
		t.Errorf("diagnostic notes %q do not name packet %d (%d candidates on cycle %d)",
			he.Diag.Notes, want.ID, candidates, wantCycle)
	}
	if err := m.CheckFlitConservation(); err != nil {
		t.Errorf("at the verdict: %v", err)
	}
	m.Tick()
	if !errors.Is(m.Health(), fault.ErrLivelock) {
		t.Error("livelock verdict did not stick")
	}
}
