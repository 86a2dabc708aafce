package xrand

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Errorf("zero seed produced %d zero outputs", zeros)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%100) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(99)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestBoolExtremes(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bool(0.3) hit rate %v, want ~0.3", frac)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(11)
	child := parent.Fork()
	// The child must not simply replay the parent's stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("fork produced %d/100 identical values with parent", same)
	}
}

// TestNewSeedGolden pins the first outputs of New for a few seeds to
// exact constants. The generator's sequence is part of the repository's
// determinism contract — golden simulation digests, journal replay and
// lane-batched seed replicas all assume New(seed) never changes — so any
// edit to the seeding or the xoshiro step must show up here first.
func TestNewSeedGolden(t *testing.T) {
	golden := map[uint64][4]uint64{
		0:  {0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c},
		1:  {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7},
		42: {0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1},
	}
	for seed, want := range golden {
		r := New(seed)
		for i, w := range want {
			if got := r.Uint64(); got != w {
				t.Errorf("New(%d) draw %d = %#016x, want %#016x", seed, i, got, w)
			}
		}
	}
}

// TestStreamIndependence pins the per-lane RNG isolation the lane-batched
// kernel relies on: lane i seeds its streams with seed+i, so adjacent
// seeds must yield streams that share no values at all in a long prefix —
// not merely "diverge eventually". With 4096 draws of 64-bit values from
// 8 streams, any collision overwhelmingly indicates correlated states
// rather than chance (~2^-40).
func TestStreamIndependence(t *testing.T) {
	const streams = 8
	const draws = 1024
	seen := make(map[uint64]int, streams*draws)
	for s := 0; s < streams; s++ {
		r := New(1000 + uint64(s))
		for i := 0; i < draws; i++ {
			v := r.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d both drew %#016x within their first %d draws",
					prev, s, v, draws)
			}
			seen[v] = s
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const buckets = 8
	var counts [buckets]int
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d count %d, want ~%d", b, c, want)
		}
	}
}

// TestSeedRestartsStream checks that re-seeding in place draws exactly what
// a new generator of that seed draws.
func TestSeedRestartsStream(t *testing.T) {
	var r Rand
	r.Seed(42)
	r.Uint64()
	r.Seed(9)
	ref := New(9)
	for i := 0; i < 16; i++ {
		if a, b := r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("draw %d after Seed(9) = %d, New(9) draws %d", i, a, b)
		}
	}
}
