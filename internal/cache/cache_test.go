package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/xrand"
)

func l1Config() Config { return Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 4} }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 1024, LineBytes: 48, Ways: 2},
		{SizeBytes: 1000, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},
		{SizeBytes: 64 * 3, LineBytes: 64, Ways: 1}, // 3 sets: not power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v): want validation error", i, cfg)
		}
	}
	if err := l1Config().Validate(); err != nil {
		t.Errorf("L1 config should validate: %v", err)
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := MustNew(l1Config())
	a := addr.Address(0x1000)
	if c.Access(a, false) {
		t.Fatal("cold cache should miss")
	}
	if _, wb := c.Fill(a, false); wb {
		t.Fatal("fill into empty set should not write back")
	}
	if !c.Access(a, false) {
		t.Fatal("line should hit after fill")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestSameLineDifferentOffsetsHit(t *testing.T) {
	c := MustNew(l1Config())
	c.Fill(0x2000, false)
	for off := addr.Address(0); off < 64; off += 4 {
		if !c.Access(0x2000+off, false) {
			t.Fatalf("offset %d of a filled line missed", off)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way cache: fill 4 lines in one set, touch the first, fill a 5th;
	// the second line (LRU) must be the victim.
	c := MustNew(l1Config())
	sets := uint64(16 * 1024 / 64 / 4) // 64 sets
	stride := addr.Address(sets * 64)  // same set, different tag
	lines := []addr.Address{0, stride, 2 * stride, 3 * stride}
	for _, a := range lines {
		c.Fill(a, false)
	}
	c.Access(lines[0], false) // refresh line 0
	c.Fill(4*stride, false)   // evicts lines[1]
	if !c.Probe(lines[0]) {
		t.Error("recently used line was evicted")
	}
	if c.Probe(lines[1]) {
		t.Error("LRU line should have been evicted")
	}
	for _, a := range lines[2:] {
		if !c.Probe(a) {
			t.Errorf("line %#x unexpectedly evicted", a)
		}
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, LineBytes: 64, Ways: 1}) // 2 sets, direct-mapped
	c.Fill(0x0, true)                                            // dirty line in set 0
	victim, wb := c.Fill(0x80, false)                            // set 0 again (stride 128)
	if !wb {
		t.Fatal("evicting a dirty line must produce a writeback")
	}
	if victim != 0x0 {
		t.Errorf("writeback victim = %#x, want 0x0", victim)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Fill(0x0, false)
	c.Access(0x0, true) // write hit -> dirty
	if _, wb := c.Fill(0x80, false); !wb {
		t.Error("line dirtied by a write hit should write back on eviction")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := MustNew(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Fill(0x0, false)
	if _, wb := c.Fill(0x80, false); wb {
		t.Error("clean eviction should not write back")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := MustNew(l1Config())
	c.Fill(0x40, false)
	if _, wb := c.Fill(0x40, true); wb {
		t.Error("re-fill of resident line must not evict")
	}
	// The re-fill with markDirty must dirty the line.
	cDM := MustNew(Config{SizeBytes: 128, LineBytes: 64, Ways: 1})
	cDM.Fill(0x0, false)
	cDM.Fill(0x0, true)
	if _, wb := cDM.Fill(0x80, false); !wb {
		t.Error("re-fill with markDirty should have dirtied the line")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := MustNew(l1Config())
	c.Fill(0x100, true)
	c.InvalidateAll()
	if c.Probe(0x100) {
		t.Error("line survived InvalidateAll")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", s.HitRate())
	}
}

func TestCachePropertyFilledLinesProbeTrue(t *testing.T) {
	// Property: immediately after Fill(a), Probe(a) is true regardless of
	// the fill history.
	f := func(raws []uint32) bool {
		c := MustNew(Config{SizeBytes: 1024, LineBytes: 64, Ways: 2})
		for _, r := range raws {
			a := addr.Address(r) &^ 63
			c.Fill(a, r%2 == 0)
			if !c.Probe(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCachePropertyCapacityBound(t *testing.T) {
	// Property: the number of distinct probe-true lines never exceeds the
	// cache's line capacity.
	f := func(raws []uint16) bool {
		cfg := Config{SizeBytes: 512, LineBytes: 64, Ways: 2} // 8 lines
		c := MustNew(cfg)
		seen := map[addr.Address]bool{}
		for _, r := range raws {
			a := addr.Address(r) &^ 63
			c.Fill(a, false)
			seen[a] = true
		}
		resident := 0
		for a := range seen {
			if c.Probe(a) {
				resident++
			}
		}
		return resident <= cfg.SizeBytes/cfg.LineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sliceCache is the array-of-line-structs cache the packed tag, LRU and
// dirty arrays replaced, kept as the reference model.
type sliceCache struct {
	sets    [][]refLine
	setMask uint64
	shift   uint
	tick    uint64
	stats   Stats
}

type refLine struct {
	tag          uint64
	valid, dirty bool
	lru          uint64
}

func newSliceCache(cfg Config) *sliceCache {
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &sliceCache{sets: make([][]refLine, nSets), setMask: uint64(nSets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	for 1<<c.shift < cfg.LineBytes {
		c.shift++
	}
	return c
}

func (c *sliceCache) index(a addr.Address) ([]refLine, uint64) {
	lineAddr := uint64(a) >> c.shift
	return c.sets[lineAddr&c.setMask], lineAddr
}

func (c *sliceCache) probe(a addr.Address) bool {
	ways, tag := c.index(a)
	for _, ln := range ways {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *sliceCache) access(a addr.Address, isWrite bool) bool {
	ways, tag := c.index(a)
	c.tick++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			ways[i].dirty = ways[i].dirty || isWrite
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *sliceCache) fill(a addr.Address, markDirty bool) (addr.Address, bool) {
	ways, tag := c.index(a)
	c.tick++
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			ways[i].dirty = ways[i].dirty || markDirty
			return 0, false
		}
	}
	v := 0
	for i := range ways {
		if !ways[i].valid {
			v = i
			break
		}
		if ways[i].lru < ways[v].lru {
			v = i
		}
	}
	var victim addr.Address
	wb := ways[v].valid && ways[v].dirty
	if wb {
		victim = addr.Address(ways[v].tag << c.shift)
		c.stats.Writebacks++
	}
	ways[v] = refLine{tag: tag, valid: true, dirty: markDirty, lru: c.tick}
	return victim, wb
}

func (c *sliceCache) flushDirty() []addr.Address {
	var dirty []addr.Address
	for _, ways := range c.sets {
		for i := range ways {
			if ways[i].valid && ways[i].dirty {
				dirty = append(dirty, addr.Address(ways[i].tag<<c.shift))
				ways[i].dirty = false
				c.stats.Writebacks++
			}
		}
	}
	return dirty
}

func TestPackedCacheMatchesSliceReference(t *testing.T) {
	// Random Access/Probe/Fill/CreditMissRetries/FlushDirty/InvalidateAll
	// streams over a few sets' worth of lines (so sets fill, LRU decides
	// victims and dirty lines are evicted) must match the reference in
	// every hit, victim, write-back and counter.
	for _, cfg := range []Config{
		{SizeBytes: 64, LineBytes: 64, Ways: 1},
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},
		{SizeBytes: 4096, LineBytes: 128, Ways: 8},
		{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 4},
		{SizeBytes: 512, LineBytes: 32, Ways: 16},
	} {
		rng := xrand.New(uint64(cfg.SizeBytes + cfg.Ways))
		c, ref := MustNew(cfg), newSliceCache(cfg)
		lines := 3 * cfg.SizeBytes / cfg.LineBytes
		for op := 0; op < 50000; op++ {
			a := addr.Address(rng.Intn(lines * cfg.LineBytes)) // any byte of a line
			write := rng.Bool(0.3)
			switch r := rng.Float64(); {
			case r < 0.4:
				if got, want := c.Access(a, write), ref.access(a, write); got != want {
					t.Fatalf("%+v op %d: Access(%#x) = %v, reference %v", cfg, op, a, got, want)
				}
			case r < 0.55:
				if got, want := c.Probe(a), ref.probe(a); got != want {
					t.Fatalf("%+v op %d: Probe(%#x) = %v, reference %v", cfg, op, a, got, want)
				}
			case r < 0.95:
				gv, gw := c.Fill(a, write)
				rv, rw := ref.fill(a, write)
				if gv != rv || gw != rw {
					t.Fatalf("%+v op %d: Fill(%#x) = %#x %v, reference %#x %v", cfg, op, a, gv, gw, rv, rw)
				}
			case r < 0.98:
				k := uint64(rng.Intn(5))
				c.CreditMissRetries(k)
				ref.tick += k
				ref.stats.Misses += k
			case r < 0.995:
				got, want := c.FlushDirty(nil), ref.flushDirty()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v op %d: FlushDirty = %#x, reference %#x", cfg, op, got, want)
				}
			default:
				c.InvalidateAll()
				for _, ways := range ref.sets {
					clear(ways)
				}
			}
			if c.Stats() != ref.stats || c.tick != ref.tick {
				t.Fatalf("%+v op %d: stats %+v tick %d, reference %+v tick %d", cfg, op, c.Stats(), c.tick, ref.stats, ref.tick)
			}
		}
		if st := c.Stats(); st.Hits == 0 || st.Misses == 0 || st.Writebacks == 0 {
			t.Errorf("%+v: stream too tame: %+v", cfg, st)
		}
	}
}
