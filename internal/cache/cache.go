// Package cache implements the set-associative caches of the baseline
// accelerator (per-core 16 KB L1 data caches and 128 KB L2 banks at each
// memory controller, Table II) plus the miss-status holding registers
// (MSHRs) that merge outstanding misses to the same line.
//
// Caches are write-back, write-allocate with LRU replacement, as described
// in §II of the paper.
package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/reuse"
)

// Config sizes a cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size (64 in the paper)
	Ways      int // associativity
}

// Validate checks that the geometry is consistent.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: all config fields must be positive: %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: LineBytes must be a power of two, got %d", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: SizeBytes %d not a multiple of LineBytes %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count must be a power of two, got %d", sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// HitRate returns hits / (hits+misses), 0 when no accesses occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a blocking set-associative array model: it tracks tag state only
// (no data), which is all a timing simulator needs.
//
// The arrays are flat and indexed set*ways+way, so one set's tags are
// adjacent words. A tag is the line address shifted left once with the
// valid bit as bit 0; an invalid way is 0, and a tag equal to the looked-up
// key is a valid match, so the way scan is one compare per word. (The shift
// drops the line address's top bit, which only one-byte lines can set.)
type Cache struct {
	cfg     Config
	tags    []uint64
	lru     []uint64 // larger = more recently used
	dirty   []bool
	ways    int
	setMask uint64
	shift   uint
	tick    uint64
	stats   Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	c := &Cache{}
	if err := c.Init(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Init builds c in place from cfg, as New does, reusing (and clearing) the
// arrays of c's previous build where their capacity fits.
func (c *Cache) Init(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	nSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	n := nSets * cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	*c = Cache{
		cfg:     cfg,
		tags:    reuse.Slice(c.tags, n),
		lru:     reuse.Slice(c.lru, n),
		dirty:   reuse.Slice(c.dirty, n),
		ways:    cfg.Ways,
		setMask: uint64(nSets - 1),
		shift:   shift,
	}
	return nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// index returns the first array slot of a's set and the tag a valid copy
// of a's line holds.
func (c *Cache) index(a addr.Address) (base int, key uint64) {
	lineAddr := uint64(a) >> c.shift
	return int(lineAddr&c.setMask) * c.ways, lineAddr<<1 | 1
}

// lookup returns the slot holding a's line, or -1.
func (c *Cache) lookup(a addr.Address) int {
	base, key := c.index(a)
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

// Probe reports whether a is present, without updating LRU or dirty state.
func (c *Cache) Probe(a addr.Address) bool { return c.lookup(a) >= 0 }

// Access looks up a. On a hit it updates LRU (and dirty state when isWrite)
// and returns hit=true. On a miss it only records the miss; callers decide
// whether to Fill (write-allocate happens at fill time, mirroring the
// request/reply flow of the real machine).
func (c *Cache) Access(a addr.Address, isWrite bool) (hit bool) {
	c.tick++
	i := c.lookup(a)
	if i < 0 {
		c.stats.Misses++
		return false
	}
	c.lru[i] = c.tick
	if isWrite {
		c.dirty[i] = true
	}
	c.stats.Hits++
	return true
}

// CreditMissRetries accounts k repeated missing Accesses to the same
// blocked line without touching array state. A stalled front-of-queue
// request that retries every cycle ticks the LRU clock and records a miss
// each time but never changes tag/LRU/dirty state (the line is absent, and
// misses do not update LRU); a core's SkipAhead uses this to credit an
// elided window of such retries in O(1) with bit-identical counters.
func (c *Cache) CreditMissRetries(k uint64) {
	c.tick += k
	c.stats.Misses += k
}

// Fill installs the line holding a, evicting the LRU way if needed.
// When the victim is dirty, Fill returns its line base address and
// writeback=true so the caller can issue the write-back request.
// markDirty installs the line already dirty (write-allocate on a store miss).
func (c *Cache) Fill(a addr.Address, markDirty bool) (victim addr.Address, writeback bool) {
	base, key := c.index(a)
	c.tick++
	// One pass finds the line if already present (e.g. filled by a merged
	// miss), the first free way, and the least recently used valid way
	// (the first on ties).
	free, old := -1, base
	for i := base; i < base+c.ways; i++ {
		switch t := c.tags[i]; {
		case t == key:
			c.lru[i] = c.tick
			if markDirty {
				c.dirty[i] = true
			}
			return 0, false
		case t == 0:
			if free < 0 {
				free = i
			}
		case c.lru[i] < c.lru[old]:
			old = i
		}
	}
	v := free
	if v < 0 {
		v = old
		if c.dirty[v] {
			victim = addr.Address(c.tags[v] >> 1 << c.shift)
			writeback = true
			c.stats.Writebacks++
		}
	}
	c.tags[v], c.lru[v], c.dirty[v] = key, c.tick, markDirty
	return victim, writeback
}

// FlushDirty cleans every dirty line, appending their base addresses to
// dirty so the caller can issue write-backs (the software-managed coherence
// flush at kernel boundaries, §II of the paper). Lines stay resident but
// clean.
func (c *Cache) FlushDirty(dirty []addr.Address) []addr.Address {
	for i, d := range c.dirty {
		if d {
			dirty = append(dirty, addr.Address(c.tags[i]>>1<<c.shift))
			c.dirty[i] = false
			c.stats.Writebacks++
		}
	}
	return dirty
}

// InvalidateAll drops every line without writebacks (used between kernels,
// mirroring software-managed coherence flushes).
func (c *Cache) InvalidateAll() {
	clear(c.tags)
	clear(c.lru)
	clear(c.dirty)
}

// Stats returns the event counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// LineBytes returns the configured line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }
