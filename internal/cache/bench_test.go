package cache

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/xrand"
)

// BenchmarkCacheAccess measures one line access on the two cache shapes of
// Table II (one op = one Access, plus the write-allocate Fill a miss
// triggers): the 16 KB 4-way L1 and the 128 KB 8-way L2 bank. Each replays
// a fixed table of addresses over twice its capacity, 30 % of them stores,
// so hits, clean and dirty evictions all occur. allocs/op is gated at zero
// in CI.
func BenchmarkCacheAccess(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"l1", Config{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 4}},
		{"l2", Config{SizeBytes: 128 * 1024, LineBytes: 64, Ways: 8}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := MustNew(tc.cfg)
			rng := xrand.New(1)
			lines := 2 * tc.cfg.SizeBytes / tc.cfg.LineBytes
			type access struct {
				a     addr.Address
				write bool
			}
			stream := make([]access, 8192)
			for i := range stream {
				stream[i] = access{addr.Address(rng.Intn(lines) * tc.cfg.LineBytes), rng.Bool(0.3)}
			}
			step := func(i int) {
				acc := stream[i%len(stream)]
				if !c.Access(acc.a, acc.write) {
					c.Fill(acc.a, acc.write)
				}
			}
			for i := 0; i < len(stream); i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
