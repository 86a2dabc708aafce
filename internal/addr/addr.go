// Package addr maps global memory addresses onto the memory system:
// which memory-controller (MC) node owns an address, and which DRAM bank,
// row and column it lands in inside that controller.
//
// Following the paper (§II), addresses are low-order interleaved among MCs
// every 256 bytes to reduce hot-spots.
package addr

import (
	"fmt"
	"math/bits"
)

// Address is a global byte address in the accelerator's memory space.
type Address uint64

// Mapper decodes addresses. The zero value is not usable; use NewMapper.
//
// Every size but the MC count is a power of two, so decoding shifts and
// masks; only an MC count that is not a power of two divides.
type Mapper struct {
	numMCs    int
	lineBytes uint64

	ilShift, rowShift, bankShift, mcShift uint   // log2 of each size
	ilMask, rowMask, bankMask, mcMask     uint64 // each size less one
	mcDiv                                 bool   // NumMCs is not a power of two
}

// Config parameterizes a Mapper. Zero fields take the paper defaults.
type Config struct {
	NumMCs          int    // memory controller count (default 8)
	InterleaveBytes uint64 // MC interleave granularity (default 256)
	LineBytes       uint64 // cache line size (default 64)
	BanksPerMC      uint64 // DRAM banks per controller (default 8)
	RowBytes        uint64 // DRAM row (page) size per bank (default 2048)
}

// Default paper parameters.
const (
	DefaultNumMCs          = 8
	DefaultInterleaveBytes = 256
	DefaultLineBytes       = 64
	DefaultBanksPerMC      = 8
	DefaultRowBytes        = 2048
)

func (c Config) withDefaults() Config {
	if c.NumMCs == 0 {
		c.NumMCs = DefaultNumMCs
	}
	if c.InterleaveBytes == 0 {
		c.InterleaveBytes = DefaultInterleaveBytes
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.BanksPerMC == 0 {
		c.BanksPerMC = DefaultBanksPerMC
	}
	if c.RowBytes == 0 {
		c.RowBytes = DefaultRowBytes
	}
	return c
}

// NewMapper validates cfg and returns a Mapper.
func NewMapper(cfg Config) (*Mapper, error) {
	cfg = cfg.withDefaults()
	if cfg.NumMCs <= 0 {
		return nil, fmt.Errorf("addr: NumMCs must be positive, got %d", cfg.NumMCs)
	}
	for name, v := range map[string]uint64{
		"InterleaveBytes": cfg.InterleaveBytes,
		"LineBytes":       cfg.LineBytes,
		"BanksPerMC":      cfg.BanksPerMC,
		"RowBytes":        cfg.RowBytes,
	} {
		if v == 0 || v&(v-1) != 0 {
			return nil, fmt.Errorf("addr: %s must be a power of two, got %d", name, v)
		}
	}
	if cfg.LineBytes > cfg.InterleaveBytes {
		return nil, fmt.Errorf("addr: LineBytes (%d) must not exceed InterleaveBytes (%d)",
			cfg.LineBytes, cfg.InterleaveBytes)
	}
	log2 := func(v uint64) uint { return uint(bits.TrailingZeros64(v)) }
	mcs := uint64(cfg.NumMCs)
	return &Mapper{
		numMCs:    cfg.NumMCs,
		lineBytes: cfg.LineBytes,
		ilShift:   log2(cfg.InterleaveBytes),
		rowShift:  log2(cfg.RowBytes),
		bankShift: log2(cfg.BanksPerMC),
		mcShift:   log2(mcs),
		ilMask:    cfg.InterleaveBytes - 1,
		rowMask:   cfg.RowBytes - 1,
		bankMask:  cfg.BanksPerMC - 1,
		mcMask:    mcs - 1,
		mcDiv:     mcs&(mcs-1) != 0,
	}, nil
}

// MustNewMapper is NewMapper but panics on error.
func MustNewMapper(cfg Config) *Mapper {
	m, err := NewMapper(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NumMCs returns the number of memory controllers.
func (m *Mapper) NumMCs() int { return m.numMCs }

// LineBytes returns the cache-line size.
func (m *Mapper) LineBytes() uint64 { return m.lineBytes }

// MC returns the index of the memory controller owning a.
func (m *Mapper) MC(a Address) int {
	_, mc := m.splitChunk(uint64(a) >> m.ilShift)
	return int(mc)
}

// splitChunk splits a global interleave-chunk number into the chunk's
// number within its controller and the controller's index.
func (m *Mapper) splitChunk(chunk uint64) (local, mc uint64) {
	if m.mcDiv {
		n := uint64(m.numMCs)
		return chunk / n, chunk % n
	}
	return chunk >> m.mcShift, chunk & m.mcMask
}

// LineAddr returns a truncated to its cache-line base.
func (m *Mapper) LineAddr(a Address) Address {
	return a &^ Address(m.lineBytes-1)
}

// Local collapses the MC interleave bits out of a so that each controller
// sees a dense local address space (consecutive 256 B chunks at one MC are
// 256*NumMCs apart globally but adjacent locally).
func (m *Mapper) Local(a Address) uint64 {
	g := uint64(a)
	chunk, _ := m.splitChunk(g >> m.ilShift)
	return chunk<<m.ilShift | g&m.ilMask
}

// BankRow is a decoded DRAM coordinate within one memory controller.
type BankRow struct {
	Bank uint64
	Row  uint64
	Col  uint64
}

// Decode maps a onto its DRAM bank, row and column within its controller.
// Rows are interleaved across banks so sequential local traffic spreads over
// banks at row granularity (the common GDDR mapping).
func (m *Mapper) Decode(a Address) BankRow {
	local := m.Local(a)
	return BankRow{
		Bank: local >> m.rowShift & m.bankMask,
		Row:  local >> (m.rowShift + m.bankShift),
		Col:  local & m.rowMask,
	}
}
