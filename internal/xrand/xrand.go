// Package xrand provides a tiny, fast, deterministic pseudo-random number
// generator (xoshiro256**) for simulation use. Unlike math/rand it has an
// explicit, copyable state, so simulator components can own independent
// streams and whole runs replay bit-exactly from a seed.
package xrand

// Rand is a xoshiro256** generator. The zero value is invalid; use New, or
// Seed a Rand held by value.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, which guarantees
// a non-degenerate internal state for any seed (including zero).
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed re-seeds r in place: afterwards it draws what New(seed) draws.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork derives an independent generator from this one, for handing separate
// streams to sub-components without correlating their sequences.
func (r *Rand) Fork() *Rand {
	return New(r.Uint64())
}
