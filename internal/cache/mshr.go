package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/reuse"
)

// Waiter is an opaque token identifying who is waiting on a miss (for the
// GPU cores it encodes a warp). It is returned verbatim by Fill.
type Waiter uint64

// MSHR is a miss-status holding register table: it tracks outstanding line
// misses and merges later misses to a line already being fetched, so only
// one request per line is in flight (the paper models 64 MSHRs per core).
//
// The table is a fixed array of entries found through a chained hash index
// and recycled through a free list, both threaded through mshrEntry.next, so
// a steady-state Allocate/Fill cycle allocates nothing: each entry keeps its
// waiter slice's backing array across reuse.
type MSHR struct {
	maxPerEntry  int
	entries      []mshrEntry // one per MSHR; len is the capacity
	buckets      []int32     // head entry of each hash chain, -1 when empty
	free         int32       // head of the free list, -1 when the table is full
	inFlight     int
	mergedMisses uint64
	peak         int
}

type mshrEntry struct {
	line    addr.Address
	next    int32 // next entry on the same hash chain or the free list, -1 ends
	write   bool  // some waiter stores to the line: it must fill dirty
	waiters []Waiter
}

// NewMSHR builds a table with the given number of entries. maxPerEntry
// bounds how many waiters may merge on one line (<=0 means unlimited).
func NewMSHR(capacity, maxPerEntry int) (*MSHR, error) {
	m := &MSHR{}
	if err := m.Init(capacity, maxPerEntry); err != nil {
		return nil, err
	}
	return m, nil
}

// Init builds m in place, as NewMSHR does, reusing the arrays of m's
// previous build where their capacity fits. Every entry starts empty on the
// free list and keeps its waiter slice's backing array.
func (m *MSHR) Init(capacity, maxPerEntry int) error {
	if capacity <= 0 {
		return fmt.Errorf("cache: MSHR capacity must be positive, got %d", capacity)
	}
	nBuckets := 1
	for nBuckets < capacity {
		nBuckets <<= 1
	}
	*m = MSHR{
		maxPerEntry: maxPerEntry,
		entries:     reuse.Keep(m.entries, capacity),
		buckets:     reuse.Slice(m.buckets, nBuckets),
	}
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := range m.entries {
		m.entries[i] = mshrEntry{next: int32(i) + 1, waiters: m.entries[i].waiters[:0]}
	}
	m.entries[capacity-1].next = -1
	return nil
}

// MustNewMSHR is NewMSHR but panics on error.
func MustNewMSHR(capacity, maxPerEntry int) *MSHR {
	m, err := NewMSHR(capacity, maxPerEntry)
	if err != nil {
		panic(err)
	}
	return m
}

// Outcome reports what Allocate did.
type Outcome int

// Allocate outcomes.
const (
	// AllocNew means a new entry was created: the caller must send a
	// memory request for the line.
	AllocNew Outcome = iota
	// AllocMerged means the miss was merged onto an in-flight entry:
	// no new request is needed.
	AllocMerged
	// AllocStallFull means the access must be retried later: the entry's
	// merge capacity is full, or a new entry was needed and either the
	// table is full or the caller cannot send the fetch.
	AllocStallFull
)

// link returns the chain link — a bucket head or an entry's next — that
// holds line's entry index, or the -1 ending the chain line hashes to when
// no entry is in flight. (Fibonacci hashing: line addresses differ only
// above the line-offset bits.)
func (m *MSHR) link(line addr.Address) *int32 {
	h := uint64(line) * 0x9e3779b97f4a7c15
	l := &m.buckets[h>>32&uint64(len(m.buckets)-1)]
	for *l >= 0 && m.entries[*l].line != line {
		l = &m.entries[*l].next
	}
	return l
}

// Allocate records a miss on line by w, merging onto the line's in-flight
// entry or starting a new one, in one hash-chain walk. write marks a store:
// the line then fills dirty. fetch reports whether the caller can send a
// memory request right now (its outbound queue has room); without it a
// miss that needs a new entry stalls, while a merge still succeeds. See
// Outcome for the contract.
func (m *MSHR) Allocate(line addr.Address, w Waiter, write, fetch bool) Outcome {
	l := m.link(line)
	if *l >= 0 {
		e := &m.entries[*l]
		if m.maxPerEntry > 0 && len(e.waiters) >= m.maxPerEntry {
			return AllocStallFull
		}
		e.waiters = append(e.waiters, w)
		e.write = e.write || write
		m.mergedMisses++
		return AllocMerged
	}
	if m.free < 0 || !fetch {
		return AllocStallFull
	}
	// Move the free list's head entry to the end of line's chain.
	i := m.free
	e := &m.entries[i]
	m.free = e.next
	e.line, e.next, e.write, e.waiters = line, -1, write, append(e.waiters[:0], w)
	*l = i
	m.inFlight++
	if m.inFlight > m.peak {
		m.peak = m.inFlight
	}
	return AllocNew
}

// Fill completes the miss on line, releasing and returning all waiters and
// whether any of them stored to the line. The returned slice is the
// entry's own storage: it is valid until the next Allocate. Filling a line
// with no entry returns nil, false (harmless, e.g. after a flush).
func (m *MSHR) Fill(line addr.Address) (waiters []Waiter, write bool) {
	l := m.link(line)
	i := *l
	if i < 0 {
		return nil, false
	}
	e := &m.entries[i]
	*l = e.next
	e.next, m.free = m.free, i
	m.inFlight--
	return e.waiters, e.write
}

// InFlight returns the number of occupied entries.
func (m *MSHR) InFlight() int { return m.inFlight }

// Full reports whether a new (non-merging) allocation would stall.
func (m *MSHR) Full() bool { return m.free < 0 }

// MergedMisses returns how many misses were merged onto existing entries.
func (m *MSHR) MergedMisses() uint64 { return m.mergedMisses }

// Peak returns the maximum simultaneous occupancy observed.
func (m *MSHR) Peak() int { return m.peak }
