package noc

import "math/bits"

// activeSet is a fixed-size bitset over component indices (routers, network
// interfaces, channels) tracking which ones hold queued work. The cycle loop
// iterates only the set bits — in ascending index order, which is what keeps
// equal-seeded runs bit-identical: skipped components are exactly those that
// would have no-opped, so arbitration and fault-RNG draw order are unchanged
// while idle tiles (the common case at low injection rates and in the
// convergence tail) cost nothing.
type activeSet struct {
	words []uint64
}

// set marks index i active.
func (s *activeSet) set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// clear marks index i inactive.
func (s *activeSet) clear(i int) { s.words[i>>6] &^= 1 << (uint(i) & 63) }

// has reports whether index i is active.
func (s *activeSet) has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// isEmpty reports whether no index is active.
func (s *activeSet) isEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// count returns the number of active indices (diagnostics only).
func (s *activeSet) count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// forEach visits active indices in ascending order. Each word is snapshotted
// when iteration reaches it: the callback may clear any bit (including its
// own) and may set bits in other activeSets, but setting bits in THIS set
// for positions at or before the cursor is not visible until the next
// traversal — the cycle loop's phases are arranged so that never happens
// (components only activate members of later phases).
func (s *activeSet) forEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
