package addr

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func defaultMapper(t *testing.T) *Mapper {
	t.Helper()
	m, err := NewMapper(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaults(t *testing.T) {
	m := defaultMapper(t)
	if m.NumMCs() != 8 || m.LineBytes() != 64 {
		t.Errorf("defaults: NumMCs=%d LineBytes=%d", m.NumMCs(), m.LineBytes())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumMCs: -1},
		{InterleaveBytes: 3},
		{LineBytes: 48},
		{BanksPerMC: 6},
		{RowBytes: 1000},
		{LineBytes: 512, InterleaveBytes: 256},
	}
	for i, cfg := range bad {
		if _, err := NewMapper(cfg); err == nil {
			t.Errorf("config %d (%+v): want error", i, cfg)
		}
	}
}

func TestMCInterleave(t *testing.T) {
	m := defaultMapper(t)
	// Consecutive 256-byte chunks rotate through the 8 MCs.
	for chunk := 0; chunk < 32; chunk++ {
		a := Address(chunk * 256)
		if got, want := m.MC(a), chunk%8; got != want {
			t.Errorf("MC(%#x) = %d, want %d", a, got, want)
		}
		// All addresses within a chunk map to the same MC.
		if m.MC(a) != m.MC(a+255) {
			t.Errorf("chunk %d split across MCs", chunk)
		}
	}
}

func TestLineAddr(t *testing.T) {
	m := defaultMapper(t)
	if got := m.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr(0x12345) = %#x, want 0x12340", got)
	}
	if got := m.LineAddr(0x40); got != 0x40 {
		t.Errorf("LineAddr(0x40) = %#x, want 0x40", got)
	}
}

func TestLocalDense(t *testing.T) {
	m := defaultMapper(t)
	// For a fixed MC, the k-th 256B chunk owned by that MC must have local
	// address k*256 — i.e. the local space is dense.
	mc := 3
	for k := uint64(0); k < 100; k++ {
		global := Address((k*8 + uint64(mc)) * 256)
		if m.MC(global) != mc {
			t.Fatalf("setup: MC(%#x)=%d, want %d", global, m.MC(global), mc)
		}
		if got, want := m.Local(global), k*256; got != want {
			t.Errorf("Local(%#x) = %d, want %d", global, got, want)
		}
	}
}

func TestLocalPreservesOffset(t *testing.T) {
	m := defaultMapper(t)
	f := func(a uint64) bool {
		a &= (1 << 40) - 1
		return m.Local(Address(a))%256 == a%256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeGeometry(t *testing.T) {
	m := defaultMapper(t)
	f := func(raw uint64) bool {
		a := Address(raw & ((1 << 40) - 1))
		br := m.Decode(a)
		return br.Bank < 8 && br.Col < 2048
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRowInterleavedAcrossBanks(t *testing.T) {
	m := defaultMapper(t)
	// Walking local addresses in row-size steps should change bank each step.
	// Local stride of rowBytes = global stride of rowBytes*numMCs restricted
	// to one MC's chunks; easier: construct addresses owned by MC 0.
	prev := m.Decode(mcLocalToGlobal(0, 0))
	for k := uint64(1); k < 8; k++ {
		cur := m.Decode(mcLocalToGlobal(0, k*2048))
		if cur.Bank == prev.Bank {
			t.Errorf("step %d: bank did not change (%d)", k, cur.Bank)
		}
		prev = cur
	}
}

func TestDecodeSameRowSameBankWithinRow(t *testing.T) {
	m := defaultMapper(t)
	base := mcLocalToGlobal(2, 5*2048)
	first := m.Decode(base)
	// Offsets within the same 256-byte chunk stay in the same row/bank.
	for off := Address(0); off < 256; off += 64 {
		got := m.Decode(base + off)
		if got.Bank != first.Bank || got.Row != first.Row {
			t.Errorf("offset %d: decode %+v, want bank/row of %+v", off, got, first)
		}
	}
}

// mcLocalToGlobal builds a global address owned by the given MC whose local
// address equals local (valid when local is 256-byte aligned).
func mcLocalToGlobal(mc int, local uint64) Address {
	chunk := local / 256
	return Address((chunk*8+uint64(mc))*256 + local%256)
}

func TestMCLocalRoundTrip(t *testing.T) {
	m := defaultMapper(t)
	f := func(mcRaw uint8, chunk uint32) bool {
		mc := int(mcRaw % 8)
		local := uint64(chunk) * 256
		g := mcLocalToGlobal(mc, local)
		return m.MC(g) == mc && m.Local(g) == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftDecodeMatchesDivision(t *testing.T) {
	// The shifts and masks must agree with the division formulas they
	// replaced, for power-of-two and other MC counts, over random addresses.
	rng := xrand.New(3)
	for _, cfg := range []Config{
		{},
		{NumMCs: 1},
		{NumMCs: 6},
		{NumMCs: 7, InterleaveBytes: 512, LineBytes: 128, BanksPerMC: 4, RowBytes: 1024},
		{NumMCs: 16, InterleaveBytes: 64, LineBytes: 64, BanksPerMC: 16, RowBytes: 4096},
		{NumMCs: 12, InterleaveBytes: 1 << 12, LineBytes: 32, BanksPerMC: 1, RowBytes: 1 << 14},
	} {
		m := MustNewMapper(cfg)
		c := cfg.withDefaults()
		n, il := uint64(c.NumMCs), c.InterleaveBytes
		for i := 0; i < 20000; i++ {
			g := rng.Uint64() >> (rng.Intn(4) * 16) // small and large addresses
			a := Address(g)
			if got, want := m.MC(a), int(g/il%n); got != want {
				t.Fatalf("%+v: MC(%#x) = %d, want %d", cfg, g, got, want)
			}
			local := g/il/n*il + g%il
			if got := m.Local(a); got != local {
				t.Fatalf("%+v: Local(%#x) = %#x, want %#x", cfg, g, got, local)
			}
			want := BankRow{
				Bank: local / c.RowBytes % c.BanksPerMC,
				Row:  local / (c.RowBytes * c.BanksPerMC),
				Col:  local % c.RowBytes,
			}
			if got := m.Decode(a); got != want {
				t.Fatalf("%+v: Decode(%#x) = %+v, want %+v", cfg, g, got, want)
			}
		}
	}
}
